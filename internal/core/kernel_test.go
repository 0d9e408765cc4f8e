package core

import (
	"slices"
	"testing"

	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// kernelThreadSchedule is the differential sweep of the parallel-kernel
// tests: 1 is the sequential oracle, 2 and 3 exercise small pools, 7 does
// not divide typical row counts so buckets are uneven.
var kernelThreadSchedule = []int{1, 2, 3, 7}

// TestKernelThreadsDifferential is the exactness contract of the parallel
// kernel: for every grid schedule (Cannon on a square rank count, SUMMA on
// a non-square one) and both intersection modes, every kernel worker count
// must reproduce the 1-worker run exactly — the triangle count AND the
// instrumentation counters (probes, mapTasks, mergeTasks), which are pure
// sums over (row, task) pairs and therefore partition-invariant. Across
// modes the triangle count and mapTasks agree too (mapTasks counts every
// intersected pair whichever routine ran it), while mergeTasks must be
// zero exactly when adaptive selection is off.
func TestKernelThreadsDifferential(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 5)
	want := seqtc.Count(g)
	for _, p := range []int{9, 6} { // 9 = 3×3 Cannon, 6 = SUMMA
		count := func(opt Options) *Result {
			if mpi.SquareSide(p) < 0 {
				return countSUMMA(t, g, p, opt)
			}
			return countVia(t, g, p, opt)
		}
		oracle := map[bool]*Result{}
		for _, noAdaptive := range []bool{false, true} {
			for _, threads := range kernelThreadSchedule {
				res := count(Options{KernelThreads: threads, NoAdaptiveIntersect: noAdaptive})
				if res.Triangles != want {
					t.Fatalf("p=%d threads=%d noAdaptive=%v: %d triangles, want %d",
						p, threads, noAdaptive, res.Triangles, want)
				}
				if res.KernelThreads != threads {
					t.Errorf("p=%d threads=%d: Result.KernelThreads=%d", p, threads, res.KernelThreads)
				}
				base, ok := oracle[noAdaptive]
				if !ok {
					oracle[noAdaptive] = res
					if noAdaptive && res.MergeTasks != 0 {
						t.Errorf("p=%d noAdaptive: MergeTasks=%d, want 0", p, res.MergeTasks)
					}
					continue
				}
				if res.Probes != base.Probes || res.MapTasks != base.MapTasks || res.MergeTasks != base.MergeTasks {
					t.Errorf("p=%d threads=%d noAdaptive=%v: counters (probes=%d map=%d merge=%d) != 1-thread oracle (%d, %d, %d)",
						p, threads, noAdaptive, res.Probes, res.MapTasks, res.MergeTasks,
						base.Probes, base.MapTasks, base.MergeTasks)
				}
			}
		}
		if a, h := oracle[false], oracle[true]; a.MapTasks != h.MapTasks {
			t.Errorf("p=%d: adaptive MapTasks=%d != hash-only MapTasks=%d (must count every intersected pair)",
				p, a.MapTasks, h.MapTasks)
		} else if a.MergeTasks == 0 {
			t.Errorf("p=%d: adaptive mode never took the merge path", p)
		}
	}
}

// TestKernelThreadsWithAblations checks that every §7.3 ablation toggle
// composes with the parallel kernel: the triangle count is invariant, and
// each toggled run's counters are identical at 1 and 3 workers.
func TestKernelThreadsWithAblations(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 6)
	want := seqtc.Count(g)
	combos := []Options{
		{NoDoublySparse: true},
		{NoDirectHash: true},
		{NoEarlyBreak: true},
		{NoBlob: true},
		{NoDoublySparse: true, NoDirectHash: true, NoEarlyBreak: true, NoBlob: true, NoAdaptiveIntersect: true},
	}
	for i, opt := range combos {
		opt.KernelThreads = 1
		seq := countVia(t, g, 9, opt)
		opt.KernelThreads = 3
		par := countVia(t, g, 9, opt)
		if seq.Triangles != want || par.Triangles != want {
			t.Errorf("combo %d: triangles seq=%d par=%d, want %d", i, seq.Triangles, par.Triangles, want)
		}
		if par.Probes != seq.Probes || par.MapTasks != seq.MapTasks || par.MergeTasks != seq.MergeTasks {
			t.Errorf("combo %d: 3-worker counters (probes=%d map=%d merge=%d) != sequential (%d, %d, %d)",
				i, par.Probes, par.MapTasks, par.MergeTasks, seq.Probes, seq.MapTasks, seq.MergeTasks)
		}
	}
}

// TestKernelPartitionLPT pins the partitioner's contract: every non-empty
// row lands in exactly one bucket, no bucket is assigned a zero-weight row,
// and the heaviest bucket carries at most the average plus one row's
// maximum weight (the classic LPT bound's additive form).
func TestKernelPartitionLPT(t *testing.T) {
	// 6 rows: row weights 5, 5, 3, 3, 2, 2 against a single fat L column.
	var taskPairs, uPairs []int32
	widths := []int{5, 5, 3, 3, 2, 2}
	for a, w := range widths {
		taskPairs = append(taskPairs, int32(a), 0)
		for k := 0; k < w; k++ {
			uPairs = append(uPairs, int32(a), int32(k))
		}
	}
	task := csrFromPairs(6, taskPairs)
	u := csrFromPairs(6, uPairs)
	l := cscBlock{cols: 1, xadj: []int32{0, 8}, adj: []int32{0, 1, 2, 3, 4, 5, 6, 7}}
	rows := []int32{0, 1, 2, 3, 4, 5}
	buckets, reported := partitionLPT(rows, &task, &u, &l, 2)
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	seen := map[int32]bool{}
	loads := make([]int64, 2)
	for w, bucket := range buckets {
		for _, a := range bucket {
			if seen[a] {
				t.Errorf("row %d assigned twice", a)
			}
			seen[a] = true
			loads[w] += int64(widths[a])
		}
	}
	if len(seen) != len(rows) {
		t.Errorf("assigned %d rows, want %d", len(seen), len(rows))
	}
	if loads[0] != 10 || loads[1] != 10 {
		t.Errorf("LPT loads %v, want perfect [10 10] on this instance", loads)
	}
	// The reported per-bucket loads use the min(|U-row|, |L-col|) weight,
	// which on this instance (8-wide L column) is the row width itself.
	if reported[0] != loads[0] || reported[1] != loads[1] {
		t.Errorf("reported loads %v, want %v", reported, loads)
	}

	// Zero-weight rows (empty U row or all-empty task columns) are dropped.
	emptyU := csrFromPairs(6, nil)
	noRows, _ := partitionLPT(rows, &task, &emptyU, &l, 2)
	for _, bucket := range noRows {
		if len(bucket) != 0 {
			t.Errorf("zero-weight rows were assigned: %v", bucket)
		}
	}
}

// csrFromPairs builds a block from (row, value) pairs for hand-made test
// inputs; rows come out sorted.
func csrFromPairs(rows int32, pairs []int32) csrBlock {
	lists := make([][]int32, rows)
	for i := 0; i < len(pairs); i += 2 {
		lists[pairs[i]] = append(lists[pairs[i]], pairs[i+1])
	}
	blk := csrBlock{rows: rows, xadj: make([]int32, rows+1)}
	for a, row := range lists {
		slices.Sort(row)
		blk.adj = append(blk.adj, row...)
		blk.xadj[a+1] = int32(len(blk.adj))
	}
	return blk
}
