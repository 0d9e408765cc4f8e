package core

import (
	"math"
	mathbits "math/bits"
	"sync/atomic"

	"tc2d/internal/hashset"
	"tc2d/internal/obs"
)

// kernelCounters accumulates the instrumentation the paper reports.
type kernelCounters struct {
	triangles int64
	probes    int64 // map lookups (Fig 2's tct ops; §7.1's probe metric)
	mapTasks  int64 // (task, shift) pairs that ran a set intersection (Table 4)
}

// rowBitmap runs one task row of one compute step: mark the keys of U-block
// row a in the bitmap (lazily — only once some task column is non-empty) and
// look the keys of every task's L-block column up in it (map-based
// intersection, §3.1/§5.1). Every hit is one triangle.
//
// Columns are ascending, so each is walked backwards down to the first key
// below floor, the row's minimum (§5.2 early break); NoEarlyBreak walks the
// whole column. A row with two or more keys in the hub window or above it
// goes to rowHub instead.
func (kn *kernel) rowBitmap(a int32, task, u *csrBlock, l *cscBlock) {
	tcols := task.row(a)
	if len(tcols) == 0 {
		return
	}
	urow := u.row(a)
	if len(urow) == 0 {
		// No U entries for this row in the current residue class:
		// nothing can intersect this step.
		return
	}
	floor := urow[0] // rows are sorted ascending
	if kn.noEarlyBreak {
		floor = 0
	}
	if len(urow) > 1 && urow[len(urow)-2] >= kn.hubLo {
		kn.rowHub(tcols, urow, floor, l)
		return
	}
	bits := kn.bits
	built := false
	var hits uint64
	var probes, tasks int
	for _, b := range tcols {
		col := l.col(b)
		if len(col) == 0 {
			continue
		}
		tasks++
		if !built {
			mark(bits, urow)
			built = true
		}
		var i int
		hits, i = walk(bits, col, len(col)-1, floor, hits)
		probes += len(col) - 1 - i
	}
	if built {
		unmark(bits, urow)
	}
	kn.kc.triangles += int64(hits)
	kn.kc.probes += int64(probes)
	kn.kc.mapTasks += int64(tasks)
}

// rowHub is rowBitmap for a row with two or more keys in the hub window or
// above it.
//
// The degree relabeling (§5.3) gives the hubs the highest labels of the
// last build, so on a skewed graph most columns end in the same keys: the
// hub window, the 64 keys [hubLo, hubLo+64) at the top of the build's key
// range. A column with at least two keys in the window has them counted 64
// at a time through its hub mask — popcount(mask & window) hits and
// popcount(mask & window keys ≥ floor) probes, exactly what walking them
// would have found — and only its other keys are walked: those above the
// window first (vertices that arrived since the build), then those below.
// The popcounts count the keys the walk would have probed, so a row gives
// the same counters on either routine. Rows with fewer such keys stay on
// rowBitmap's plain walk: on a skewed graph the masks answer as many probes
// without them, and on a flat graph, where the masks answer almost none,
// a single key would put the window tests on ten times as many rows.
func (kn *kernel) rowHub(tcols, urow []int32, floor int32, l *cscBlock) {
	bits, hubLo := kn.bits, kn.hubLo
	hubHi := hubLo + 64
	over := max(floor, hubHi) // the walk above the window stops below it
	above := ^uint64(0)       // the window's keys ≥ floor
	if floor > hubLo {
		above <<= uint32(floor - hubLo)
	}
	var window uint64
	built := false
	var hits uint64
	var probes, hubProbes, tasks int
	for _, b := range tcols {
		col := l.col(b)
		if len(col) == 0 {
			continue
		}
		tasks++
		if !built {
			mark(bits, urow)
			window = kn.readWindow()
			built = true
		}
		end := len(col) - 1 // the last key the walk counts as its probe
		i := end
		if col[i] >= hubHi { // keys above the window
			hits, i = walk(bits, col, i, over, hits)
			if i >= 0 && col[i] >= hubHi { // the walk reached the floor
				probes += end - i
				continue
			}
		}
		if i > 0 && col[i-1] >= hubLo {
			m := kn.hubs[b]
			if m == 0 { // the column's first row this step
				m = kn.hubMask(b, col)
			}
			hits += uint64(mathbits.OnesCount64(m & window))
			hubProbes += mathbits.OnesCount64(m & above)
			n := mathbits.OnesCount64(m)
			i -= n
			end -= n
		}
		hits, i = walk(bits, col, i, floor, hits)
		probes += end - i
	}
	if built {
		unmark(bits, urow)
	}
	kn.kc.triangles += int64(hits)
	kn.kc.probes += int64(probes + hubProbes)
	kn.kc.mapTasks += int64(tasks)
	kn.hubProbes += int64(hubProbes)
}

// walk looks col[i], col[i-1], … up in bits down to the first key below
// floor, adding every hit to hits, and returns hits and the index it stopped
// at. It adds the looked-up bit instead of branching on it; the caller
// counts the probes from where it stopped.
func walk(bits []uint64, col []int32, i int, floor int32, hits uint64) (uint64, int) {
	for ; i >= 0; i-- {
		k := col[i]
		if k < floor {
			break
		}
		hits += bits[uint32(k)>>6] >> (uint32(k) & 63) & 1
	}
	return hits, i
}

// mark sets the bits of a U row's keys.
func mark(bits []uint64, urow []int32) {
	for _, k := range urow {
		bits[uint32(k)>>6] |= 1 << (uint32(k) & 63)
	}
}

// unmark clears exactly the words mark set: a stale bit would inflate every
// later row.
func unmark(bits []uint64, urow []int32) {
	for _, k := range urow {
		bits[uint32(k)>>6] = 0
	}
}

// readWindow returns the bitmap's bits of the hub window, key hubLo in bit 0.
func (kn *kernel) readWindow() uint64 {
	w, s := kn.hubLo>>6, uint32(kn.hubLo)&63
	if s == 0 {
		return kn.bits[w]
	}
	return kn.bits[w]>>s | kn.bits[w+1]<<(64-s)
}

// hubMask records and returns the hub mask of L column b: bit k − hubLo for
// each of its keys k in the hub window. Only columns with at least two such
// keys get one, so a recorded mask is never zero, and zero marks a column
// not yet met this step.
func (kn *kernel) hubMask(b int32, col []int32) uint64 {
	lo := kn.hubLo
	var m uint64
	for i := len(col) - 1; i >= 0 && col[i] >= lo; i-- {
		m |= 1 << uint32(col[i]-lo) // 0 for a key above the window
	}
	kn.hubs[b] = m
	kn.hubsSet = true
	return m
}

// clearHubs ends a compute step: the next step's L block has other columns,
// so the masks this one recorded are zeroed, and hubs is all-zero between
// steps, as bits is between rows. Clearing the whole array costs less than
// keeping a list of the columns that have a mask.
func (kn *kernel) clearHubs() {
	if kn.hubsSet {
		clear(kn.hubs)
		kn.hubsSet = false
	}
}

// rowProbing is rowBitmap for the NoDirectHash ablation (§7.3): the same
// row, intersected through the multiplicative-hash linear-probing table the
// paper's direct hashing avoids.
func (kn *kernel) rowProbing(a int32, task, u *csrBlock, l *cscBlock) {
	tcols := task.row(a)
	urow := u.row(a)
	if len(tcols) == 0 || len(urow) == 0 {
		return
	}
	floor := urow[0]
	if kn.noEarlyBreak {
		floor = 0
	}
	built := false
	for _, b := range tcols {
		col := l.col(b)
		if len(col) == 0 {
			continue
		}
		kn.kc.mapTasks++
		if !built {
			kn.set.Reset()
			for _, k := range urow {
				kn.set.Insert(k)
			}
			built = true
		}
		for i := len(col) - 1; i >= 0 && col[i] >= floor; i-- {
			kn.kc.probes++
			if kn.set.Contains(col[i]) {
				kn.kc.triangles++
			}
		}
	}
}

// kernel is the state of the kernel for one count (or one IntersectPairs
// call), reused across all its steps on the rank's own goroutine: the
// intersection map of the row in hand, the hub masks of the step in hand,
// the counters, and the routine the count's options select — chosen here,
// once, so the per-element loops read no option.
type kernel struct {
	// bits is the direct-addressed map of the paper's §5.2 direct hashing,
	// made unconditional: one bit per key of the operand's local key range,
	// so every row is collision-free. All-zero between rows.
	bits []uint64
	// hubLo is the first key of the hub window. hubs holds, per L column of
	// the current step, the column's hub mask or 0 until a row first needs
	// it; hubsSet tells whether any is recorded.
	hubLo   int32
	hubs    []uint64
	hubsSet bool
	// scratch holds bits and hubs, taken from slot and put back by release.
	scratch *kernelScratch
	slot    *atomic.Pointer[kernelScratch]
	// set is the probing table of the NoDirectHash ablation; nil otherwise.
	set *hashset.Set
	kc  kernelCounters
	// hubProbes is the part of kc.probes the hub masks answered.
	hubProbes int64

	probing      bool // NoDirectHash: rowProbing instead of rowBitmap
	noEarlyBreak bool
	allRows      bool    // NoDoublySparse: visit every row, not just taskRows
	rowIDs       []int32 // 0..rows-1, materialized under allRows

	// steps counts compute steps (a nil-safe no-op when metrics are
	// disabled).
	steps *obs.Counter
}

// kernelScratch is the working memory of one kernel at a time. Whenever it
// is in its slot, bits and hubs are all-zero over their whole capacity.
type kernelScratch struct{ bits, hubs []uint64 }

// reserveScratch fills the kernel slot of a state just built, so its kernel
// scratch is resident with its blocks from the start: a bitmap over the
// write path's ⌈n/qc⌉ keys (at least the count's ⌈n/L⌉) and a hub mask per
// L column.
func (p *Prepared) reserveScratch() {
	words := (int(numWithResidue(p.n, p.blk.qc, 0)) + 63) / 64
	p.scratch.Store(&kernelScratch{bits: make([]uint64, words), hubs: make([]uint64, p.blk.nCols)})
}

// newKernel builds the kernel of one count: a bitmap of one bit per key
// below keyRange and a hub mask per L column (nCols of them), with the hub
// window on the 64 keys below hubEnd, the end of the degree-ordered keys —
// or, for the ablation, a probing table of 8× the longest U-block row (load
// factor at most 1/8). A count builds its kernel through Prepared.kernel,
// from the sizing of the state at that moment, so the bitmap follows
// elastic growth. The memory comes from slot, a one-scratch cache that
// release refills, so a read allocates neither the bitmap nor the masks; a
// concurrent kernel that finds the slot empty allocates its own. Unlike a
// pool, the slot drops nothing at random under the race detector and keeps
// its scratch across collections.
func newKernel(keyRange, hubEnd, nCols int32, maxURow int64, slot *atomic.Pointer[kernelScratch], opt Options) *kernel {
	kn := &kernel{
		probing:      opt.NoDirectHash,
		noEarlyBreak: opt.NoEarlyBreak,
		allRows:      opt.NoDoublySparse,
		steps: opt.Metrics.Counter("tc_kernel_steps_total",
			"Compute steps executed by the counting kernel (all ranks)."),
	}
	if kn.probing {
		kn.set = hashset.New(int(8 * maxURow))
		return kn
	}
	words := (int(keyRange) + 63) / 64
	s := slot.Swap(nil)
	if s == nil {
		s = new(kernelScratch)
	}
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	}
	if cap(s.hubs) < int(nCols) {
		s.hubs = make([]uint64, nCols)
	}
	kn.scratch, kn.slot = s, slot
	kn.bits, kn.hubs = s.bits[:words], s.hubs[:nCols]
	kn.hubLo = max(0, min(hubEnd, keyRange)-64)
	return kn
}

// release puts the kernel's scratch back in its slot; the kernel must not
// run again. A kernel that panicked is never released, so no bitmap left dirty
// mid-row is handed out again.
func (kn *kernel) release() {
	if kn.scratch != nil {
		kn.clearHubs()
		kn.slot.Store(kn.scratch)
		kn.scratch, kn.bits, kn.hubs = nil, nil, nil
	}
}

// run executes one compute step's kernel over the current operand blocks.
func (kn *kernel) run(task *csrBlock, taskRows []int32, u *csrBlock, l *cscBlock) {
	kn.steps.Inc()
	rows := taskRows
	if kn.allRows {
		if kn.rowIDs == nil {
			kn.rowIDs = make([]int32, task.rows)
			for a := range kn.rowIDs {
				kn.rowIDs[a] = int32(a)
			}
		}
		rows = kn.rowIDs
	}
	if kn.probing {
		for _, a := range rows {
			kn.rowProbing(a, task, u, l)
		}
		return
	}
	for _, a := range rows {
		kn.rowBitmap(a, task, u, l)
	}
	kn.clearHubs()
}

// Pair is one intersection of the write path, in one column residue class:
// row A, this rank's or a KeyRow shipped in from another rank of the grid
// column, and the row of label B, which this rank holds.
type Pair struct {
	A Row
	B int32
}

// IntersectPairs intersects every pair on the count kernel's bitmap, on the
// calling rank's goroutine: hit(i, w) receives every label w common to
// pairs[i].A and pairs[i].B, in pair order. Returns the bitmap lookups made.
//
// The bitmap is sized for the current vertex count (after any GrowTo): the
// column keys of a column class are collision-free and below ⌈n/qc⌉. It is
// taken from the count kernel's scratch slot and put back.
func (p *Prepared) IntersectPairs(pairs []Pair, hit func(i int, w int32)) int64 {
	keyRange := numWithResidue(p.n, p.blk.qc, 0)
	kn := newKernel(keyRange, keyRange, 0, 0, &p.scratch, Options{})
	for i := range pairs {
		kn.pairBitmap(i, pairs[i].A, p.AdjRow(pairs[i].B), int32(p.blk.qc), int32(p.blk.col), hit)
	}
	kn.release()
	return kn.kc.probes
}

// pairBitmap is rowBitmap for pair i of IntersectPairs: mark the keys of
// row a, walk each part of row b backwards down to a's minimum (the early
// break, whose probes do not depend on how the rows are split into parts),
// handing the label of every common key to hit, and clear the words a set.
// Every lookup is one probe.
func (kn *kernel) pairBitmap(i int, a, b Row, qc, col int32, hit func(i int, w int32)) {
	bits := kn.bits
	floor := int32(math.MaxInt32) // above every key: an empty A probes nothing
	a.parts(func(keys []int32, mul, add int32) {
		for _, e := range keys {
			k := e*mul + add
			floor = min(floor, k)
			bits[uint32(k)>>6] |= 1 << (uint32(k) & 63)
		}
	})
	probes := 0
	b.parts(func(keys []int32, mul, add int32) {
		x := len(keys) - 1
		for ; x >= 0; x-- {
			k := keys[x]*mul + add
			if k < floor {
				break
			}
			if bits[uint32(k)>>6]>>(uint32(k)&63)&1 != 0 {
				hit(i, k*qc+col)
			}
		}
		probes += len(keys) - 1 - x
	})
	a.parts(func(keys []int32, mul, add int32) {
		for _, e := range keys {
			bits[uint32(e*mul+add)>>6] = 0
		}
	})
	kn.kc.probes += int64(probes)
}
