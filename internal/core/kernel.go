package core

import (
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
// whole column. The walk adds the looked-up bit to a register instead of
// branching on it, and the probe count comes from where the walk stopped.
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
			for _, k := range urow {
				bits[uint32(k)>>6] |= 1 << (uint32(k) & 63)
			}
			built = true
		}
		i := len(col) - 1
		for ; i >= 0; i-- {
			k := col[i]
			if k < floor {
				break
			}
			hits += bits[uint32(k)>>6] >> (uint32(k) & 63) & 1
		}
		probes += len(col) - 1 - i
	}
	if built {
		// A stale bit would inflate every later row: clear exactly the
		// words this row set.
		for _, k := range urow {
			bits[uint32(k)>>6] = 0
		}
	}
	kn.kc.triangles += int64(hits)
	kn.kc.probes += int64(probes)
	kn.kc.mapTasks += int64(tasks)
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
// intersection map of the row in hand, the counters, and the routine the
// count's options select — chosen here, once, so the per-element loops read
// no option.
type kernel struct {
	// bits is the direct-addressed map of the paper's §5.2 direct hashing,
	// made unconditional: one bit per key of the operand's local key range,
	// so every row is collision-free. All-zero between rows.
	bits []uint64
	// set is the probing table of the NoDirectHash ablation; nil otherwise.
	set *hashset.Set
	kc  kernelCounters

	probing      bool // NoDirectHash: rowProbing instead of rowBitmap
	noEarlyBreak bool
	allRows      bool    // NoDoublySparse: visit every row, not just taskRows
	rowIDs       []int32 // 0..rows-1, materialized under allRows

	// steps counts compute steps (a nil-safe no-op when metrics are
	// disabled).
	steps *obs.Counter
}

// newKernel builds the kernel of one count: a bitmap of one bit per key
// below keyRange or, for the ablation, a probing table of 8× the longest
// U-block row (load factor at most 1/8). A count builds its kernel through
// Prepared.kernel, from the sizing of the state at that moment — never cached
// across counts, so the bitmap follows elastic growth.
func newKernel(keyRange int32, maxURow int64, opt Options) *kernel {
	kn := &kernel{
		probing:      opt.NoDirectHash,
		noEarlyBreak: opt.NoEarlyBreak,
		allRows:      opt.NoDoublySparse,
		steps: opt.Metrics.Counter("tc_kernel_steps_total",
			"Compute steps executed by the counting kernel (all ranks)."),
	}
	if kn.probing {
		kn.set = hashset.New(int(8 * maxURow))
	} else {
		kn.bits = make([]uint64, (int(keyRange)+63)/64)
	}
	return kn
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
}

// Pair is one intersection of the write path: two ascending lists of global
// labels of one column residue class — mirror rows (Prepared.AdjRow), or such
// a row shipped in from another rank of the same grid column.
type Pair struct{ A, B []int32 }

// IntersectPairs intersects every pair on the count kernel's bitmap, on the
// calling rank's goroutine: hit(i, w) receives every label w common to
// pairs[i].A and pairs[i].B, in pair order. Returns the bitmap lookups made.
//
// The bitmap is sized for the current vertex count (after any GrowTo): every
// entry of a column class y lists labels ≡ y mod qc, so label / qc is a
// collision-free key below ⌈n/qc⌉.
func (p *Prepared) IntersectPairs(pairs []Pair, hit func(i int, w int32)) int64 {
	qc := int32(p.blk.qc)
	kn := newKernel(numWithResidue(p.n, p.blk.qc, 0), 0, Options{})
	for i := range pairs {
		kn.pairBitmap(i, &pairs[i], qc, hit)
	}
	return kn.kc.probes
}

// pairBitmap is rowBitmap for pair i of IntersectPairs: mark A's keys
// (label / qc) in the bitmap, walk B backwards down to A's minimum — the same
// early break — handing every common label to hit, then clear exactly the
// words A set. Every lookup is one probe.
func (kn *kernel) pairBitmap(i int, pr *Pair, qc int32, hit func(i int, w int32)) {
	a, b := pr.A, pr.B
	if len(a) == 0 || len(b) == 0 {
		return
	}
	bits := kn.bits
	for _, v := range a {
		k := uint32(v / qc)
		bits[k>>6] |= 1 << (k & 63)
	}
	j := len(b) - 1
	for ; j >= 0 && b[j] >= a[0]; j-- {
		if k := uint32(b[j] / qc); bits[k>>6]>>(k&63)&1 != 0 {
			hit(i, b[j])
		}
	}
	for _, v := range a {
		bits[uint32(v/qc)>>6] = 0
	}
	kn.kc.probes += int64(len(b) - 1 - j)
}
