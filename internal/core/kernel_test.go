package core

import (
	"math/rand"
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
// a non-square one), every kernel worker count must reproduce the 1-worker
// run exactly — the triangle count AND the instrumentation counters (probes,
// mapTasks), which are pure sums over (row, task) pairs and therefore
// partition-invariant. TestKernelGolden pins the values themselves.
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
		var base *Result
		for _, threads := range kernelThreadSchedule {
			res := count(Options{KernelThreads: threads})
			if res.Triangles != want {
				t.Fatalf("p=%d threads=%d: %d triangles, want %d", p, threads, res.Triangles, want)
			}
			if res.KernelThreads != threads {
				t.Errorf("p=%d threads=%d: Result.KernelThreads=%d", p, threads, res.KernelThreads)
			}
			if base == nil {
				base = res
				continue
			}
			if res.Probes != base.Probes || res.MapTasks != base.MapTasks {
				t.Errorf("p=%d threads=%d: counters (probes=%d map=%d) != 1-thread oracle (%d, %d)",
					p, threads, res.Probes, res.MapTasks, base.Probes, base.MapTasks)
			}
		}
	}
}

// TestKernelThreadsWithAblations checks that every §7.3 ablation toggle
// composes with the parallel kernel: the triangle count and the intersected
// pairs are invariant, each toggled run's counters are identical at 1 and 3
// workers, the probing table performs exactly the bitmap's lookups, and only
// NoEarlyBreak adds any.
func TestKernelThreadsWithAblations(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 6)
	want := seqtc.Count(g)
	base := countVia(t, g, 9, Options{KernelThreads: 1})
	combos := []Options{
		{NoDoublySparse: true},
		{NoDirectHash: true},
		{NoEarlyBreak: true},
		{NoBlob: true},
		{NoDoublySparse: true, NoDirectHash: true, NoEarlyBreak: true, NoBlob: true},
	}
	for i, opt := range combos {
		opt.KernelThreads = 1
		seq := countVia(t, g, 9, opt)
		opt.KernelThreads = 3
		par := countVia(t, g, 9, opt)
		if seq.Triangles != want || par.Triangles != want {
			t.Errorf("combo %d: triangles seq=%d par=%d, want %d", i, seq.Triangles, par.Triangles, want)
		}
		if par.Probes != seq.Probes || par.MapTasks != seq.MapTasks {
			t.Errorf("combo %d: 3-worker counters (probes=%d map=%d) != sequential (%d, %d)",
				i, par.Probes, par.MapTasks, seq.Probes, seq.MapTasks)
		}
		if seq.MapTasks != base.MapTasks {
			t.Errorf("combo %d: MapTasks %d, default kernel %d", i, seq.MapTasks, base.MapTasks)
		}
		if opt.NoEarlyBreak {
			if seq.Probes <= base.Probes {
				t.Errorf("combo %d: %d probes without early break, %d with", i, seq.Probes, base.Probes)
			}
		} else if seq.Probes != base.Probes {
			t.Errorf("combo %d: %d probes, default kernel %d", i, seq.Probes, base.Probes)
		}
	}
}

// TestKernelRowMatchesMapOracle checks both row routines against a map
// oracle on random rows whose keys straddle the bitmap's word boundaries
// (63/64, 127/128), with empty U rows, empty task rows, empty columns and
// columns entirely below the row minimum in the mix — and, after every row,
// that the bitmap is all-zero again: a stale bit would silently inflate
// later rows. Every trial also runs one pair of IntersectPairs' routine,
// held to the same oracle and the same clean bitmap.
func TestKernelRowMatchesMapOracle(t *testing.T) {
	const keyRange = 130 // three words, the last one partial
	rng := rand.New(rand.NewSource(7))
	boundary := []int32{0, 63, 64, 127, 128, 129}
	randList := func(n int, lo int32) []int32 {
		seen := map[int32]bool{}
		for len(seen) < n {
			k := lo + rng.Int31n(keyRange-lo)
			if rng.Intn(3) == 0 {
				k = boundary[rng.Intn(len(boundary))]
			}
			if k >= lo {
				seen[k] = true
			}
		}
		out := make([]int32, 0, n)
		for k := range seen {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	for trial := 0; trial < 300; trial++ {
		const rows, cols = 4, 6
		var taskPairs, uPairs, lPairs []int32
		for a := int32(0); a < rows; a++ {
			if rng.Intn(5) > 0 { // else: empty U row
				lo := int32(0)
				if rng.Intn(2) == 0 {
					lo = 64 // leaves room for columns entirely below the minimum
				}
				for _, k := range randList(1+rng.Intn(20), lo) {
					uPairs = append(uPairs, a, k)
				}
			}
			for b := int32(0); b < cols; b++ {
				if rng.Intn(3) > 0 { // all six misses leave the task row empty
					taskPairs = append(taskPairs, a, b)
				}
			}
		}
		for b := int32(0); b < cols; b++ {
			switch rng.Intn(4) {
			case 0: // empty column
			case 1: // every key below 64
				for _, k := range randList(1+rng.Intn(10), 0) {
					if k < 64 {
						lPairs = append(lPairs, b, k)
					}
				}
			default:
				for _, k := range randList(1+rng.Intn(30), 0) {
					lPairs = append(lPairs, b, k)
				}
			}
		}
		task := csrFromPairs(rows, taskPairs)
		u := csrFromPairs(rows, uPairs)
		lc := csrFromPairs(cols, lPairs)
		l := cscBlock{rows: lc.rows, xadj: lc.xadj, adj: lc.adj}

		for _, noEarlyBreak := range []bool{false, true} {
			bitmap := newKernelPool(1, keyRange, u.maxRow(), Options{}).workers[0]
			probing := newKernelPool(1, keyRange, u.maxRow(), Options{NoDirectHash: true}).workers[0]
			var want kernelCounters
			for a := int32(0); a < rows; a++ {
				urow := u.row(a)
				inRow := map[int32]bool{}
				for _, k := range urow {
					inRow[k] = true
				}
				for _, b := range task.row(a) {
					if len(urow) == 0 || len(l.col(b)) == 0 {
						continue
					}
					want.mapTasks++
					for _, k := range l.col(b) {
						if noEarlyBreak || k >= urow[0] {
							want.probes++
						}
						if inRow[k] {
							want.triangles++
						}
					}
				}
				bitmap.rowBitmap(a, &task, &u, &l, noEarlyBreak)
				probing.rowProbing(a, &task, &u, &l, noEarlyBreak)
				for i, word := range bitmap.bits {
					if word != 0 {
						t.Fatalf("trial %d row %d: bitmap word %d = %#x after the row", trial, a, i, word)
					}
				}
				if bitmap.kc != want || probing.kc != want {
					t.Fatalf("trial %d row %d noEarlyBreak=%v: bitmap %+v, probing %+v, oracle %+v",
						trial, a, noEarlyBreak, bitmap.kc, probing.kc, want)
				}
			}
		}

		// The write path's pair routine on the same kind of lists, as labels
		// of column class 2 of 3 (key = label / 3): empty sides, B entirely
		// below A's minimum and keys on the word boundaries in the mix.
		const qc, class = 3, 2
		labels := func(lo int32) []int32 {
			if rng.Intn(6) == 0 {
				return nil
			}
			keys := randList(1+rng.Intn(30), lo)
			for i := range keys {
				keys[i] = keys[i]*qc + class
			}
			return keys
		}
		pr := Pair{A: labels(int32(64 * rng.Intn(2))), B: labels(0)}
		if rng.Intn(8) == 0 && len(pr.A) > 0 && pr.A[0] > class {
			pr.B = []int32{class} // entirely below A's minimum
		}
		inA := map[int32]bool{}
		for _, v := range pr.A {
			inA[v] = true
		}
		var wantHits, wantProbes int64
		for _, v := range pr.B {
			if len(pr.A) > 0 && v >= pr.A[0] {
				wantProbes++
			}
			if inA[v] {
				wantHits++
			}
		}
		w := newKernelPool(1, keyRange, 0, Options{}).workers[0]
		var hits int64
		w.pairBitmap(0, trial, &pr, qc, func(worker, i int, v int32) {
			if worker != 0 || i != trial || !inA[v] {
				t.Fatalf("trial %d: hit(%d, %d, %d) is not a common label of pair %d on worker 0", trial, worker, i, v, trial)
			}
			hits++
		})
		for i, word := range w.bits {
			if word != 0 {
				t.Fatalf("trial %d: bitmap word %d = %#x after the pair", trial, i, word)
			}
		}
		if hits != wantHits || w.kc.probes != wantProbes {
			t.Fatalf("trial %d: pair %v ∩ %v: %d hits, %d probes; oracle %d, %d", trial, pr.A, pr.B, hits, w.kc.probes, wantHits, wantProbes)
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
	l := cscBlock{rows: 1, xadj: []int32{0, 8}, adj: []int32{0, 1, 2, 3, 4, 5, 6, 7}}
	rows := []int32{0, 1, 2, 3, 4, 5}
	kp := newKernelPool(2, 64, 5, Options{})
	kp.weighRows(rows, &task, &u, &l)
	kp.partitionLPT()
	seen := map[int32]bool{}
	loads := make([]int64, 2)
	for w, bucket := range kp.buckets {
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
	if kp.loads[0] != loads[0] || kp.loads[1] != loads[1] {
		t.Errorf("reported loads %v, want %v", kp.loads, loads)
	}

	// Zero-weight rows (empty U row or all-empty task columns) are dropped,
	// and the buckets of the previous step with them.
	emptyU := csrFromPairs(6, nil)
	kp.weighRows(rows, &task, &emptyU, &l)
	kp.partitionLPT()
	for w, bucket := range kp.buckets {
		if len(bucket) != 0 || kp.loads[w] != 0 {
			t.Errorf("zero-weight rows were assigned: %v (load %d)", bucket, kp.loads[w])
		}
	}

	// The same placement on IntersectPairs' weights, min(|A|, |B|): the
	// pairs of this instance weigh 5, 5, 3, 3, 2, 2 again, and pairs with an
	// empty side weigh nothing and are dropped.
	list := func(n int) []int32 { return make([]int32, n) }
	pairs := []Pair{{list(2), list(9)}, {list(5), list(5)}, {nil, list(4)}, {list(9), list(3)},
		{list(3), list(7)}, {list(5), list(6)}, {list(2), list(2)}, {list(7), nil}}
	pairWeights := []int64{2, 5, 0, 3, 3, 5, 2, 0}
	kp.weighPairs(pairs)
	kp.partitionLPT()
	seen = map[int32]bool{}
	for w, bucket := range kp.buckets {
		var load int64
		for _, i := range bucket {
			if seen[i] || pairWeights[i] == 0 {
				t.Errorf("pair %d (weight %d) placed twice or despite an empty side", i, pairWeights[i])
			}
			seen[i] = true
			load += pairWeights[i]
		}
		if load != 10 || kp.loads[w] != 10 {
			t.Errorf("pair bucket %d: load %d, reported %d, want perfect 10", w, load, kp.loads[w])
		}
	}
	if len(seen) != 6 {
		t.Errorf("placed %d pairs, want the 6 with both sides non-empty", len(seen))
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
