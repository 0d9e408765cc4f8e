package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

// rebuildCSR is the whole-block rebuild the in-place splice replaced, kept
// as its oracle: fresh xadj and adj, every row re-appended, edited rows
// merged with their sorted insertions minus their removals.
func rebuildCSR(b *csrBlock, ins, del [][2]int32) {
	if len(ins) == 0 && len(del) == 0 {
		return
	}
	slices.SortFunc(ins, cmpPair)
	slices.SortFunc(del, cmpPair)
	newAdj := make([]int32, 0, len(b.adj)+len(ins)-len(del))
	newXadj := make([]int32, b.rows+1)
	ii, di := 0, 0
	for a := int32(0); a < b.rows; a++ {
		row := b.row(a)
		if (ii >= len(ins) || ins[ii][0] != a) && (di >= len(del) || del[di][0] != a) {
			newAdj = append(newAdj, row...)
			newXadj[a+1] = int32(len(newAdj))
			continue
		}
		ri := 0
		for ri < len(row) || (ii < len(ins) && ins[ii][0] == a) {
			if ii < len(ins) && ins[ii][0] == a && (ri >= len(row) || ins[ii][1] <= row[ri]) {
				if ri < len(row) && ins[ii][1] == row[ri] {
					panic("core: splice insert of an existing entry")
				}
				newAdj = append(newAdj, ins[ii][1])
				ii++
				continue
			}
			v := row[ri]
			ri++
			if di < len(del) && del[di][0] == a && del[di][1] == v {
				di++
				continue
			}
			newAdj = append(newAdj, v)
		}
		if di < len(del) && del[di][0] == a {
			panic("core: splice delete of a missing entry")
		}
		newXadj[a+1] = int32(len(newAdj))
	}
	if ii != len(ins) || di != len(del) {
		panic("core: splice edit referenced an out-of-range row")
	}
	b.xadj, b.adj = newXadj, newAdj
}

// cmpPair orders (row, value) pairs row-major.
func cmpPair(a, b [2]int32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// editsOf packs (row, value) pairs the way routeEdits files them.
func editsOf(ins, del [][2]int32) (ed classEdits) {
	for _, e := range ins {
		ed.add(false, e[0], e[1])
	}
	for _, e := range del {
		ed.add(true, e[0], e[1])
	}
	return ed
}

// blockOf builds a resident U block from rows, with room for that many more
// entries (a freshly prepared block has none).
func blockOf(rows [][]int32, room int) csrBlock {
	nnz := 0
	for _, row := range rows {
		nnz += len(row)
	}
	b := newBlock(kindU, int32(len(rows)), nnz, room)
	end := int32(0)
	for a, row := range rows {
		end += int32(copy(b.adj[end:], row))
		b.xadj[a+1] = end
	}
	return b
}

func cloneBlock(b csrBlock) csrBlock {
	return csrBlock{rows: b.rows, xadj: slices.Clone(b.xadj), adj: slices.Clone(b.adj)}
}

// randomBlock draws rows sorted distinct values below vals, each present
// with probability fill.
func randomBlock(rng *rand.Rand, rows, vals int, fill float64) csrBlock {
	out := make([][]int32, rows)
	for a := range out {
		for v := 0; v < vals; v++ {
			if rng.Float64() < fill {
				out[a] = append(out[a], int32(v))
			}
		}
	}
	return blockOf(out, 0)
}

// randomEdits draws a valid edit set against b: per row (with probability
// rowP) each present value is deleted and each absent one inserted with
// probability delP and insP.
func randomEdits(rng *rand.Rand, b *csrBlock, vals int, rowP, insP, delP float64) (ins, del [][2]int32) {
	for a := int32(0); a < b.rows; a++ {
		if rng.Float64() >= rowP {
			continue
		}
		row := b.row(a)
		for v := int32(0); v < int32(vals); v++ {
			if _, has := slices.BinarySearch(row, v); has {
				if rng.Float64() < delP {
					del = append(del, [2]int32{a, v})
				}
			} else if rng.Float64() < insP {
				ins = append(ins, [2]int32{a, v})
			}
		}
	}
	// The splice sorts its edits; hand them over shuffled.
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	rng.Shuffle(len(del), func(i, j int) { del[i], del[j] = del[j], del[i] })
	return ins, del
}

// checkSplice applies ed to got in place and to want through the rebuild
// oracle and compares the blocks exactly, plus the in-place invariants:
// packed CSR, its own blob, and slack within slackBound.
func checkSplice(t *testing.T, sc *spliceScratch, got, want *csrBlock, ins, del [][2]int32) {
	t.Helper()
	e := len(ins) + len(del)
	ed := editsOf(ins, del)
	rebuildCSR(want, ins, del)
	sc.spliceCSR(got, &ed)
	for name, pair := range map[string][2][]int32{"xadj": {got.xadj, want.xadj}, "adj": {got.adj, want.adj}} {
		if g, w := pair[0], pair[1]; !slices.Equal(g, w) {
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("%s differs from the rebuild oracle from index %d on (lengths %d and %d, %d rows, %d edits)", name, i, len(g), len(w), got.rows, e)
		}
	}
	if int32(len(got.adj)) != got.xadj[got.rows] {
		t.Fatalf("block not packed: len(adj) = %d, xadj[rows] = %d", len(got.adj), got.xadj[got.rows])
	}
	if x, a, err := decodeCSRBlob(got.blob(), kindU, got.rows); err != nil || &x[0] != &got.xadj[0] || len(a) != len(got.adj) {
		t.Fatalf("block is not its own blob: %v", err)
	}
	if e > 0 && cap(got.adj)-len(got.adj) > slackBound(len(got.adj), e) {
		t.Fatalf("slack %d exceeds the bound %d (len %d, %d edits)", cap(got.adj)-len(got.adj), slackBound(len(got.adj), e), len(got.adj), e)
	}
}

func TestSpliceMatchesRebuildOracle(t *testing.T) {
	pairs := func(p ...int32) (out [][2]int32) {
		for i := 0; i+1 < len(p); i += 2 {
			out = append(out, [2]int32{p[i], p[i+1]})
		}
		return out
	}
	base := [][]int32{{1, 4, 9}, {}, {0, 2}, {}, {}, {3, 5, 7, 8}, {6}}
	named := []struct {
		name     string
		rows     [][]int32
		ins, del [][2]int32
	}{
		{"first row", base, pairs(0, 0, 0, 5), pairs(0, 4)},
		{"last row", base, pairs(6, 2, 6, 9), pairs(6, 6)},
		{"empty rows between edits", base, pairs(2, 1, 5, 4), pairs(2, 0)},
		{"a row emptied", base, nil, pairs(2, 0, 2, 2)},
		{"a row created", base, pairs(3, 7, 3, 2), nil},
		{"deletes only", base, nil, pairs(0, 1, 5, 3, 5, 8, 6, 6)},
		{"inserts only", base, pairs(0, 0, 1, 1, 4, 4, 6, 7), nil},
		{"grow then shrink around an untouched run", base, pairs(0, 2, 0, 3), pairs(5, 3, 5, 5, 5, 7)},
		{"shrink then grow around an untouched run", base, pairs(5, 0, 5, 1, 5, 2), pairs(0, 1, 0, 4)},
		{"net zero row", base, pairs(2, 1), pairs(2, 2)},
		{"zero-row block", nil, nil, nil},
		// Five rows without entries and no room: the block emptyBlock makes.
		{"bucket created by its first insert", make([][]int32, 5), pairs(4, 1, 0, 3, 4, 0), nil},
	}
	for _, tc := range named {
		t.Run(tc.name, func(t *testing.T) {
			got := blockOf(tc.rows, 0)
			want := cloneBlock(got)
			checkSplice(t, &spliceScratch{}, &got, &want, tc.ins, tc.del)
		})
	}

	t.Run("growth past capacity twice in a row", func(t *testing.T) {
		reg := obs.NewRegistry()
		var holder Prepared
		holder.SetMetrics(reg)
		sc := &holder.splice
		got := blockOf(base, 0)
		want := cloneBlock(got)
		var ins [][2]int32
		for v := int32(20); v < 30; v++ {
			ins = append(ins, [2]int32{1, v})
		}
		checkSplice(t, sc, &got, &want, ins, nil)
		room := cap(got.adj) - len(got.adj)
		ins = nil
		for v := int32(0); v <= int32(room); v++ {
			ins = append(ins, [2]int32{3, 100 + v})
		}
		checkSplice(t, sc, &got, &want, ins, nil)
		if n := reg.Snapshot()["tc_splice_reallocs_total"]; n != 2 {
			t.Errorf("tc_splice_reallocs_total = %v after two outgrown capacities, want 2", n)
		}
		// A small edit now fits the slack the second growth left.
		checkSplice(t, sc, &got, &want, pairs(0, 0), pairs(6, 6))
		if n := reg.Snapshot()["tc_splice_reallocs_total"]; n != 2 {
			t.Errorf("tc_splice_reallocs_total = %v after an edit inside the slack, want 2", n)
		}
		if reg.Snapshot()["tc_splice_moved_bytes_total"] == 0 {
			t.Error("tc_splice_moved_bytes_total stayed 0")
		}
	})

	// Random blocks, each carried through a stream of random valid edit
	// sets so every slack state (packed, grown, shrunk) is spliced into.
	rng := rand.New(rand.NewSource(21))
	sc := &spliceScratch{}
	for trial := 0; trial < 60; trial++ {
		rows, vals := rng.Intn(40), 1+rng.Intn(48)
		got := randomBlock(rng, rows, vals, rng.Float64())
		want := cloneBlock(got)
		for round := 0; round < 12; round++ {
			rowP, insP, delP := rng.Float64(), rng.Float64()*0.5, rng.Float64()*0.5
			switch rng.Intn(5) {
			case 0:
				insP = 0
			case 1:
				delP = 0
			}
			ins, del := randomEdits(rng, &got, vals, rowP, insP, delP)
			checkSplice(t, sc, &got, &want, ins, del)
		}
	}
}

// TestSpliceRejectsBeforeWriting feeds the splice each kind of invalid edit
// mixed into otherwise valid ones: it must panic with the block untouched —
// an in-place splice that validated while writing would leave it corrupt.
func TestSpliceRejectsBeforeWriting(t *testing.T) {
	rows := [][]int32{{1, 4, 9}, {}, {0, 2}, {3, 5, 7, 8}}
	validIns, validDel := [][2]int32{{0, 0}, {1, 6}, {3, 4}}, [][2]int32{{0, 9}, {2, 0}}
	for _, tc := range []struct {
		name     string
		ins, del [][2]int32
		want     string
	}{
		{"insert of an existing entry", [][2]int32{{3, 7}}, nil, "core: splice insert of an existing entry"},
		{"delete of a missing entry", nil, [][2]int32{{3, 6}}, "core: splice delete of a missing entry"},
		{"delete from an empty row", nil, [][2]int32{{1, 2}}, "core: splice delete of a missing entry"},
		{"insert past the last row", [][2]int32{{4, 1}}, nil, "core: splice edit referenced an out-of-range row"},
		{"delete past the last row", nil, [][2]int32{{9, 1}}, "core: splice edit referenced an out-of-range row"},
		{"negative row", [][2]int32{{-1, 1}}, nil, "core: splice edit referenced an out-of-range row"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Leave slack, as a resident block has after its first growth.
			b := blockOf(rows, 8)
			before := cloneBlock(b)
			ed := editsOf(append(slices.Clone(validIns), tc.ins...), append(slices.Clone(validDel), tc.del...))
			var got any
			func() {
				defer func() { got = recover() }()
				(&spliceScratch{}).spliceCSR(&b, &ed)
			}()
			if got != tc.want {
				t.Fatalf("panic %v, want %q", got, tc.want)
			}
			if !slices.Equal(b.xadj, before.xadj) || !slices.Equal(b.adj, before.adj) || b.rows != before.rows {
				t.Fatalf("rejected edit changed the block:\n got %v %v\nwant %v %v", b.xadj, b.adj, before.xadj, before.adj)
			}
		})
	}
	t.Run("zero-row block", func(t *testing.T) {
		b := blockOf(nil, 0)
		var got any
		func() {
			defer func() { got = recover() }()
			ed := editsOf([][2]int32{{0, 0}}, nil)
			(&spliceScratch{}).spliceCSR(&b, &ed)
		}()
		if got != "core: splice edit referenced an out-of-range row" {
			t.Fatalf("panic %v, want the out-of-range one", got)
		}
	})
}

// createdClasses counts the operand classes of b that exist.
func createdClasses(b *blocks) (n int) {
	for i := range b.u {
		if b.u[i].xadj != nil {
			n++
		}
	}
	for i := range b.l {
		if b.l[i].xadj != nil {
			n++
		}
	}
	return n
}

// TestSpliceCreatesSUMMABuckets inserts edges whose operand classes a rank
// holds no bucket for yet: the splice must create them, and the row view
// must read exactly what the spliced blocks define.
func TestSpliceCreatesSUMMABuckets(t *testing.T) {
	// One edge only: degree relabeling gives its endpoints the two top
	// labels, so no label pair two or more apart exists yet.
	const n = 36
	g, err := graph.FromEdges(n, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var ins [][2]int32
	for a := int32(0); a < n; a++ {
		for b := a + 2; b < n; b += 5 {
			ins = append(ins, [2]int32{a, b})
		}
	}
	_, err = mpi.Run(6, testCfg(), func(c *mpi.Comm) (any, error) {
		prep, err := prepareOn(c, g, 2, 3, EnumJIK)
		if err != nil {
			return nil, err
		}
		before := createdClasses(prep.blk)
		splice(c, prep, ins, nil)
		created := int64(createdClasses(prep.blk) - before)
		if c.AllreduceInt64(created, mpi.OpSum) == 0 {
			return nil, fmt.Errorf("the inserts created no bucket on any rank; the case is not exercised")
		}
		if err := checkRowView(c, prep, rand.New(rand.NewSource(int64(c.Rank())))); err != nil {
			return nil, fmt.Errorf("rank %d: after the splice: %w", c.Rank(), err)
		}
		return nil, prep.blk.check(prep.n)
	})
	if err != nil {
		t.Fatal(err)
	}
}
