package core

import (
	"math/rand"
	"slices"
	"testing"
)

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
			bitmap := newKernel(keyRange, u.maxRow(), Options{NoEarlyBreak: noEarlyBreak})
			probing := newKernel(keyRange, u.maxRow(), Options{NoDirectHash: true, NoEarlyBreak: noEarlyBreak})
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
				bitmap.rowBitmap(a, &task, &u, &l)
				probing.rowProbing(a, &task, &u, &l)
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
		w := newKernel(keyRange, 0, Options{})
		var hits int64
		w.pairBitmap(trial, &pr, qc, func(i int, v int32) {
			if i != trial || !inA[v] {
				t.Fatalf("trial %d: hit(%d, %d) is not a common label of pair %d", trial, i, v, trial)
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
