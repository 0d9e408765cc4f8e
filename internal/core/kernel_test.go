package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// TestKernelRowMatchesMapOracle checks the bitmap's row routines (rowBitmap
// and the rowHub it hands rows with window keys to) and rowProbing against a
// map oracle on random rows whose keys straddle the bitmap's word boundaries
// (63/64, 127/128, 191/192), with empty U rows, empty task rows, empty
// columns and columns entirely below the row minimum in the mix — and, after
// every row, that the bitmap is all-zero again: a stale bit would silently
// inflate later rows. Each sizing puts the hub window elsewhere: across a
// word boundary, on an aligned word, at key 0, with and without keys above
// it (vertices that arrived since the build). U rows and L columns put two
// or more keys in the window or none, with and without keys above it; row
// minima of rowHub's rows fall below the window, inside it and above it;
// U rows with a single key there, which stay on rowBitmap's plain walk, and
// single-window-key columns, which rowHub walks, are in the mix. Each trial's rows are
// one step: the columns' masks are shared by its rows, and after clearHubs,
// which ends every step of run, the masks must be all-zero again before the
// kernel goes back to the pool. Every trial also runs one pair of
// IntersectPairs' routine, held to the same oracle and the same clean
// bitmap: A keys in any order, B a row of blocks whose
// L part and two U classes each hold part of it.
func TestKernelRowMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range []struct{ keyRange, hubEnd int32 }{
		{250, 250}, // window 186..249, across the word boundary at 192
		{250, 221}, // window 157..220, keys 221..249 above it
		{256, 256}, // window 192..255, the aligned top word
		{250, 40},  // a build of fewer than 64 keys: window 0..63, keys above
	} {
		keyRange := sz.keyRange
		hubLo := max(0, sz.hubEnd-64)
		hubHi := min(hubLo+64, keyRange)
		var boundary []int32
		for _, k := range []int32{0, 63, 64, 127, 128, 191, 192, 193, hubLo - 1, hubLo, hubLo + 1, hubHi - 1, hubHi, keyRange - 1} {
			if k >= 0 && k < keyRange {
				boundary = append(boundary, k)
			}
		}
		// randList draws min(n, hi-lo) distinct keys in [lo, hi), a third of
		// them from the boundaries when those fall in range.
		randList := func(n int, lo, hi int32) []int32 {
			if hi <= lo {
				return nil
			}
			n = min(n, int(hi-lo))
			seen := map[int32]bool{}
			for len(seen) < n {
				k := lo + rng.Int31n(hi-lo)
				if rng.Intn(3) == 0 {
					k = boundary[rng.Intn(len(boundary))]
				}
				if k >= lo && k < hi {
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
		// hubList draws below keys under the window, in keys in it and over
		// keys above it.
		hubList := func(below, in, over int) []int32 {
			out := randList(below, 0, hubLo)
			out = append(out, randList(in, hubLo, hubHi)...)
			return append(out, randList(over, hubHi, keyRange)...)
		}
		inWindow := func(k int32) bool { return k >= hubLo && k < hubHi }
		var hubRows, floorIn, floorAbove, hubCols, hubOverCols int
		for trial := 0; trial < 150; trial++ {
			const rows, cols = 4, 6
			var taskPairs, uPairs, lPairs []int32
			for a := int32(0); a < rows; a++ {
				var urow []int32
				switch rng.Intn(8) {
				case 0: // empty U row
				case 1: // anywhere in the range
					urow = randList(1+rng.Intn(20), 0, keyRange)
				case 2: // above 64: room for columns entirely below the minimum
					urow = randList(1+rng.Intn(20), 64, keyRange)
				case 3: // no key in the window or above it
					urow = hubList(1+rng.Intn(20), 0, 0)
				case 4: // window keys, the minimum below the window
					urow = hubList(1+rng.Intn(15), 2+rng.Intn(20), 0)
				case 5: // every key in the window: the minimum inside it
					urow = hubList(0, 2+rng.Intn(20), 0)
				case 6: // window keys and keys above it
					urow = hubList(rng.Intn(10), 1+rng.Intn(20), 1+rng.Intn(10))
				default: // every key above the window: the minimum there
					urow = hubList(0, 0, 1+rng.Intn(10))
				}
				if len(urow) > 1 && urow[len(urow)-2] >= hubLo { // rowHub's rows
					hubRows++
					if inWindow(urow[0]) {
						floorIn++
					}
					if urow[0] >= hubHi {
						floorAbove++
					}
				}
				for _, k := range urow {
					uPairs = append(uPairs, a, k)
				}
				for b := int32(0); b < cols; b++ {
					if rng.Intn(3) > 0 { // all six misses leave the task row empty
						taskPairs = append(taskPairs, a, b)
					}
				}
			}
			for b := int32(0); b < cols; b++ {
				var col []int32
				switch rng.Intn(8) {
				case 0: // empty column
				case 1: // every key below 64
					col = randList(1+rng.Intn(10), 0, 64)
				case 2: // anywhere in the range
					col = randList(1+rng.Intn(30), 0, keyRange)
				case 3: // two or more window keys over keys below the window
					col = hubList(rng.Intn(20), 2+rng.Intn(30), 0)
				case 4: // a single window key: the plain walk
					col = hubList(rng.Intn(20), 1, rng.Intn(3))
				case 5: // the whole window
					col = hubList(0, 64, 0)
				case 6: // two or more window keys under keys above the window
					col = hubList(rng.Intn(20), 2+rng.Intn(30), 1+rng.Intn(10))
				default: // keys above the window only
					col = hubList(0, 0, 1+rng.Intn(10))
				}
				if n := len(slices.DeleteFunc(slices.Clone(col), func(k int32) bool { return !inWindow(k) })); n >= 2 {
					hubCols++
					if col[len(col)-1] >= hubHi {
						hubOverCols++
					}
				}
				for _, k := range col {
					lPairs = append(lPairs, b, k)
				}
			}
			task := csrFromPairs(rows, taskPairs)
			u := csrFromPairs(rows, uPairs)
			lc := csrFromPairs(cols, lPairs)
			l := cscBlock{rows: lc.rows, xadj: lc.xadj, adj: lc.adj}

			for _, noEarlyBreak := range []bool{false, true} {
				bitmap := newKernel(keyRange, sz.hubEnd, cols, u.maxRow(), new(atomic.Pointer[kernelScratch]), Options{NoEarlyBreak: noEarlyBreak})
				probing := newKernel(keyRange, sz.hubEnd, cols, u.maxRow(), new(atomic.Pointer[kernelScratch]), Options{NoDirectHash: true, NoEarlyBreak: noEarlyBreak})
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
							t.Fatalf("%v trial %d row %d: bitmap word %d = %#x after the row", sz, trial, a, i, word)
						}
					}
					if bitmap.kc != want || probing.kc != want {
						t.Fatalf("%v trial %d row %d noEarlyBreak=%v: bitmap %+v, probing %+v, oracle %+v",
							sz, trial, a, noEarlyBreak, bitmap.kc, probing.kc, want)
					}
				}
				bitmap.clearHubs()
				for b, m := range bitmap.hubs {
					if m != 0 {
						t.Fatalf("%v trial %d: hub mask of column %d = %#x after the step", sz, trial, b, m)
					}
				}
				bitmap.release()
			}

			// The write path's pair routine on the same kind of lists, in
			// column class 2 of 3 (label = key·3 + 2), on a 1×3 grid with
			// L = 6: B's keys below its split point are its L part, those
			// above it its U part, which U class key%2 holds as key/2.
			// Empty sides, B entirely below A's minimum and keys on the word
			// boundaries are in the mix.
			const qc, class = 3, 2
			keysOf := func(lo int32) []int32 {
				if rng.Intn(6) == 0 {
					return nil
				}
				return randList(1+rng.Intn(30), lo, keyRange)
			}
			aKeys, bKeys := keysOf(int32(64*rng.Intn(4))), keysOf(0)
			if rng.Intn(8) == 0 && len(aKeys) > 0 && aKeys[0] > 0 {
				bKeys = []int32{0} // entirely below A's minimum
			}
			rng.Shuffle(len(aKeys), func(i, j int) { aKeys[i], aKeys[j] = aKeys[j], aKeys[i] })
			split := rng.Int31n(keyRange + 1)
			var lPart []int32
			uParts := [2][]int32{}
			for _, k := range bKeys {
				if k < split {
					lPart = append(lPart, 0, k)
				} else {
					uParts[k%2] = append(uParts[k%2], 0, k/2)
				}
			}
			blk := &blocks{qr: 1, qc: qc, L: 2 * qc, col: class, task: csrFromPairs(1, lPart),
				u: []csrBlock{csrFromPairs(1, uParts[0]), csrFromPairs(1, uParts[1])}}
			inA := map[int32]bool{}
			minA := keyRange
			for _, k := range aKeys {
				inA[k*qc+class] = true
				minA = min(minA, k)
			}
			var wantHits, wantProbes int64
			for _, k := range bKeys {
				if k >= minA {
					wantProbes++
				}
				if inA[k*qc+class] {
					wantHits++
				}
			}
			w := newKernel(keyRange, keyRange, 0, 0, new(atomic.Pointer[kernelScratch]), Options{})
			var hits int64
			w.pairBitmap(trial, KeyRow(aKeys), Row{blk: blk}, qc, class, func(i int, v int32) {
				if i != trial || !inA[v] {
					t.Fatalf("%v trial %d: hit(%d, %d) is not a common label of pair %d", sz, trial, i, v, trial)
				}
				hits++
			})
			for i, word := range w.bits {
				if word != 0 {
					t.Fatalf("%v trial %d: bitmap word %d = %#x after the pair", sz, trial, i, word)
				}
			}
			if hits != wantHits || w.kc.probes != wantProbes {
				t.Fatalf("%v trial %d: pair %v ∩ %v: %d hits, %d probes; oracle %d, %d", sz, trial, aKeys, bKeys, hits, w.kc.probes, wantHits, wantProbes)
			}
			w.release()
		}
		t.Logf("%v: %d rows for rowHub (minimum inside the window %d, above it %d), %d columns with masks (%d with keys above)",
			sz, hubRows, floorIn, floorAbove, hubCols, hubOverCols)
		overflow := hubHi < keyRange
		if hubRows < 150 || floorIn < 40 || hubCols < 150 || overflow && (floorAbove < 40 || hubOverCols < 40) {
			t.Fatalf("%v: the trials reached the hub window too rarely", sz)
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
