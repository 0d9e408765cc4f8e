package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"tc2d/internal/hashset"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

// kernelCounters accumulates the instrumentation the paper reports. Every
// field is a pure sum over (row, task) pairs, so any partitioning of the
// pairs across workers reproduces the same totals.
type kernelCounters struct {
	triangles int64
	probes    int64 // map lookups (Fig 2's tct ops; §7.1's probe metric)
	mapTasks  int64 // (task, shift) pairs that ran a set intersection (Table 4)
}

func (kc *kernelCounters) add(o kernelCounters) {
	kc.triangles += o.triangles
	kc.probes += o.probes
	kc.mapTasks += o.mapTasks
}

// kernelWorker is one worker's private state, reused across all steps of a
// count: the intersection map of the row in hand and the worker's counters.
type kernelWorker struct {
	// bits is the direct-addressed map of the paper's §5.2 direct hashing,
	// made unconditional: one bit per key of the operand's local key range,
	// so every row is collision-free. All-zero between rows.
	bits []uint64
	// set is the probing table of the NoDirectHash ablation; nil otherwise.
	set *hashset.Set
	kc  kernelCounters
}

// rowBitmap runs one task row of one compute step: mark the keys of U-block
// row a in the bitmap (lazily — only once some task column is non-empty) and
// look the keys of every task's L-block column up in it (map-based
// intersection, §3.1/§5.1). Every hit is one triangle.
//
// Columns are ascending, so each is walked backwards down to the first key
// below floor, the row's minimum (§5.2 early break); noEarlyBreak walks the
// whole column. The walk adds the looked-up bit to a register instead of
// branching on it, and the probe count comes from where the walk stopped.
func (w *kernelWorker) rowBitmap(a int32, task, u *csrBlock, l *cscBlock, noEarlyBreak bool) {
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
	if noEarlyBreak {
		floor = 0
	}
	bits := w.bits
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
	w.kc.triangles += int64(hits)
	w.kc.probes += int64(probes)
	w.kc.mapTasks += int64(tasks)
}

// rowProbing is rowBitmap for the NoDirectHash ablation (§7.3): the same
// row, intersected through the multiplicative-hash linear-probing table the
// paper's direct hashing avoids.
func (w *kernelWorker) rowProbing(a int32, task, u *csrBlock, l *cscBlock, noEarlyBreak bool) {
	tcols := task.row(a)
	urow := u.row(a)
	if len(tcols) == 0 || len(urow) == 0 {
		return
	}
	floor := urow[0]
	if noEarlyBreak {
		floor = 0
	}
	built := false
	for _, b := range tcols {
		col := l.col(b)
		if len(col) == 0 {
			continue
		}
		w.kc.mapTasks++
		if !built {
			w.set.Reset()
			for _, k := range urow {
				w.set.Insert(k)
			}
			built = true
		}
		for i := len(col) - 1; i >= 0 && col[i] >= floor; i-- {
			w.kc.probes++
			if w.set.Contains(col[i]) {
				w.kc.triangles++
			}
		}
	}
}

// kernelWorkers resolves Options.KernelThreads on the calling rank: 0 (or a
// negative value) shares the P = min(GOMAXPROCS, NumCPU) threads the runtime
// will actually schedule among the ranks of this process that can compute at
// once, P / min(hosted ranks, ComputeSlots), at least 1 — four ranks on two
// CPUs run one worker each, a one-rank tcworker on a 16-core host runs 16.
func (o Options) kernelWorkers(c *mpi.Comm) int {
	if o.KernelThreads > 0 {
		return o.KernelThreads
	}
	p := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	return max(1, p/c.ConcurrentRanks())
}

// weightedItem is one LPT item of a partition — a task row of a step, or a
// pair of IntersectPairs — with its weight.
type weightedItem struct {
	i int32
	w int64
}

// kernelPool is the state of the kernel for one count (or one IntersectPairs
// call): the workers, the routine the count's options select — chosen here,
// once, so the per-element loops read no option — and the scratch of the LPT
// partitioner. The workers' counters are summed in worker order after the
// last step, which keeps every Result counter exact at any thread count (each
// field is a pure sum over (row, task) pairs).
type kernelPool struct {
	workers      []kernelWorker
	probing      bool // NoDirectHash: rowProbing instead of rowBitmap
	noEarlyBreak bool
	allRows      bool    // NoDoublySparse: visit every row, not just taskRows
	rowIDs       []int32 // 0..rows-1, materialized under allRows

	// partitionLPT scratch, reused across steps: the weighed items, and per
	// worker the indices placed on it and their total weight.
	weighted []weightedItem
	buckets  [][]int32
	loads    []int64

	// Observability handles (nil-safe no-ops when metrics are disabled):
	// steps counts compute steps, imbalance records max/mean LPT bucket
	// load per parallel step — the per-step worker skew Table 3 reports
	// between ranks, one level down.
	steps     *obs.Counter
	imbalance *obs.Histogram
}

// newKernelPool builds the n workers of one count: a bitmap of one bit per
// key below keyRange each or, for the ablation, a probing table of 8× the
// longest U-block row (load factor at most 1/8). A count builds its pool
// through Prepared.kernelPool, from the sizing of the state at that moment —
// never cached across counts, so the bitmaps follow elastic growth.
func newKernelPool(n int, keyRange int32, maxURow int64, opt Options) *kernelPool {
	kp := &kernelPool{
		workers:      make([]kernelWorker, n),
		probing:      opt.NoDirectHash,
		noEarlyBreak: opt.NoEarlyBreak,
		allRows:      opt.NoDoublySparse,
		buckets:      make([][]int32, n),
		loads:        make([]int64, n),
		steps: opt.Metrics.Counter("tc_kernel_steps_total",
			"Compute steps executed by the counting kernel (all ranks)."),
		imbalance: opt.Metrics.Histogram("tc_kernel_step_imbalance",
			"Per-step LPT bucket load imbalance (max/mean over busy workers).",
			obs.RatioBuckets),
	}
	for i := range kp.workers {
		if kp.probing {
			kp.workers[i].set = hashset.New(int(8 * maxURow))
		} else {
			kp.workers[i].bits = make([]uint64, (int(keyRange)+63)/64)
		}
	}
	return kp
}

// runRows runs the count's routine over rows on worker w.
func (kp *kernelPool) runRows(w *kernelWorker, rows []int32, task, u *csrBlock, l *cscBlock) {
	if kp.probing {
		for _, a := range rows {
			w.rowProbing(a, task, u, l, kp.noEarlyBreak)
		}
		return
	}
	for _, a := range rows {
		w.rowBitmap(a, task, u, l, kp.noEarlyBreak)
	}
}

// run executes one compute step's kernel over the current operand blocks,
// fanning the task rows across the pool's workers. The goroutines it spawns
// share the calling rank's compute slot and wall-clock measurement.
func (kp *kernelPool) run(task *csrBlock, taskRows []int32, u *csrBlock, l *cscBlock) {
	kp.steps.Inc()
	rows := taskRows
	if kp.allRows {
		if kp.rowIDs == nil {
			kp.rowIDs = make([]int32, task.rows)
			for a := range kp.rowIDs {
				kp.rowIDs[a] = int32(a)
			}
		}
		rows = kp.rowIDs
	}
	if len(kp.workers) == 1 {
		kp.runRows(&kp.workers[0], rows, task, u, l)
		return
	}
	kp.weighRows(rows, task, u, l)
	kp.partitionLPT()
	kp.observeImbalance()
	kp.fanOut(func(w int) { kp.runRows(&kp.workers[w], kp.buckets[w], task, u, l) })
}

// fanOut runs body(w) for every worker w with a non-empty bucket, each on its
// own goroutine, and waits for all of them.
func (kp *kernelPool) fanOut(body func(w int)) {
	var wg sync.WaitGroup
	for w := range kp.workers {
		if len(kp.buckets[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

// observeImbalance records max/mean over the busy (non-zero-load) LPT
// buckets of one step. Steps with at most one busy bucket carry no balance
// information and are skipped.
func (kp *kernelPool) observeImbalance() {
	if kp.imbalance == nil {
		return
	}
	var top, sum int64
	busy := 0
	for _, l := range kp.loads {
		if l == 0 {
			continue
		}
		busy++
		sum += l
		top = max(top, l)
	}
	if busy < 2 {
		return
	}
	kp.imbalance.Observe(float64(top) * float64(busy) / float64(sum))
}

// total sums the workers' private counters, deterministically in worker
// order.
func (kp *kernelPool) total() kernelCounters {
	var kc kernelCounters
	for i := range kp.workers {
		kc.add(kp.workers[i].kc)
	}
	return kc
}

// weighRows fills the partition's items with one step's task rows, weighted
// by the A⁺-weight Σ over the row's tasks of min(|U-row|, |L-col|). Rows with
// zero weight this step (empty U row, or every task column empty) are
// dropped — they contribute nothing.
func (kp *kernelPool) weighRows(rows []int32, task *csrBlock, u *csrBlock, l *cscBlock) {
	weighted := kp.weighted[:0]
	for _, a := range rows {
		tcols := task.row(a)
		if len(tcols) == 0 {
			continue
		}
		lu := len(u.row(a))
		if lu == 0 {
			continue
		}
		var wt int64
		for _, b := range tcols {
			wt += int64(min(lu, len(l.col(b))))
		}
		if wt == 0 {
			continue
		}
		weighted = append(weighted, weightedItem{a, wt})
	}
	kp.weighted = weighted
}

// partitionLPT splits the weighed items into one bucket per worker
// (kp.buckets, with the per-bucket weights in kp.loads). Items are placed
// longest-processing-time first onto the least-loaded bucket; ties break
// deterministically (heavier weight, then lower index), though correctness
// never depends on placement: every counter is a pure sum over items.
func (kp *kernelPool) partitionLPT() {
	slices.SortFunc(kp.weighted, func(x, y weightedItem) int {
		if x.w != y.w {
			return cmp.Compare(y.w, x.w)
		}
		return cmp.Compare(x.i, y.i)
	})
	for w := range kp.buckets {
		kp.buckets[w] = kp.buckets[w][:0]
		kp.loads[w] = 0
	}
	for _, r := range kp.weighted {
		best := 0
		for w := 1; w < len(kp.loads); w++ {
			if kp.loads[w] < kp.loads[best] {
				best = w
			}
		}
		kp.buckets[best] = append(kp.buckets[best], r.i)
		kp.loads[best] += r.w
	}
}

// Pair is one intersection of the write path: two ascending lists of global
// labels of one column residue class — mirror rows (Prepared.AdjRow), or such
// a row shipped in from another rank of the same grid column.
type Pair struct{ A, B []int32 }

// IntersectPairs intersects every pair on the count kernel's bitmap workers,
// as many as KernelWorkers(c): pairBitmap per pair, spread over the workers by
// the count steps' LPT placement on min(|A|, |B|) weights. hit(worker, i, w)
// receives every label w common to pairs[i].A and pairs[i].B; with several
// workers the calls run concurrently, but one worker's calls never overlap, so
// state kept per worker (worker < KernelWorkers(c)) needs no lock. Returns the
// bitmap lookups made — a pure sum over pairs, exact at any worker count.
//
// The bitmaps are sized for the current vertex count (after any GrowTo):
// every entry of a column class y lists labels ≡ y mod qc, so label / qc is a
// collision-free key below ⌈n/qc⌉.
func (p *Prepared) IntersectPairs(c *mpi.Comm, pairs []Pair, hit func(worker, i int, w int32)) int64 {
	qc := int32(p.blk.qc)
	kp := newKernelPool(p.KernelWorkers(c), numWithResidue(p.n, p.blk.qc, 0), 0, Options{})
	if len(kp.workers) == 1 {
		for i := range pairs {
			kp.workers[0].pairBitmap(0, i, &pairs[i], qc, hit)
		}
	} else {
		kp.weighPairs(pairs)
		kp.partitionLPT()
		kp.fanOut(func(w int) {
			for _, i := range kp.buckets[w] {
				kp.workers[w].pairBitmap(w, int(i), &pairs[i], qc, hit)
			}
		})
	}
	return kp.total().probes
}

// weighPairs fills the partition's items with the pairs of IntersectPairs,
// weighted by min(|A|, |B|); a pair with an empty side is dropped.
func (kp *kernelPool) weighPairs(pairs []Pair) {
	weighted := kp.weighted[:0]
	for i, pr := range pairs {
		if wt := min(len(pr.A), len(pr.B)); wt > 0 {
			weighted = append(weighted, weightedItem{int32(i), int64(wt)})
		}
	}
	kp.weighted = weighted
}

// pairBitmap is rowBitmap for pair i of IntersectPairs on the pool's worker
// id: mark A's keys (label / qc) in the bitmap, walk B backwards down to A's
// minimum — the same early break — handing every common label to hit, then
// clear exactly the words A set. Every lookup is one probe.
func (w *kernelWorker) pairBitmap(id, i int, pr *Pair, qc int32, hit func(worker, i int, w int32)) {
	a, b := pr.A, pr.B
	if len(a) == 0 || len(b) == 0 {
		return
	}
	bits := w.bits
	for _, v := range a {
		k := uint32(v / qc)
		bits[k>>6] |= 1 << (k & 63)
	}
	j := len(b) - 1
	for ; j >= 0 && b[j] >= a[0]; j-- {
		if k := uint32(b[j] / qc); bits[k>>6]>>(k&63)&1 != 0 {
			hit(id, i, b[j])
		}
	}
	for _, v := range a {
		bits[uint32(v/qc)>>6] = 0
	}
	w.kc.probes += int64(len(b) - 1 - j)
}
