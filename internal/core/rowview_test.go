package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// rowOracle lists this rank's (local row, label) entries straight from the
// block definitions — every U entry and every entry of the L classes ls
// (lClasses) converted back to global labels — and sorts them with a
// comparison sort.
func rowOracle(p *Prepared, ls []cscBlock) [][2]int32 {
	var out [][2]int32
	b := p.blk
	qr, qc, L := int32(b.qr), int32(b.qc), int32(b.L)
	for i, u := range b.u {
		t := int32(i*b.qc + b.col)
		for a := int32(0); a < u.rows; a++ {
			for _, k := range u.row(a) {
				out = append(out, [2]int32{a, k*L + t})
			}
		}
	}
	for i, l := range ls {
		t := int32(i*b.qr + b.row)
		for j := int32(0); j < l.rows; j++ {
			for _, k := range l.col(j) {
				out = append(out, [2]int32{(k*L + t) / qr, j*qc + int32(b.col)})
			}
		}
	}
	slices.SortFunc(out, cmpPair)
	return out
}

// checkRowView holds every local row of p's view to rowOracle: its entries,
// as labels, are the oracle's row; Len counts them; each part ascends, as
// the early break of IntersectPairs needs; and HasEdgeLocal finds every
// entry and none of a sample of absent column-class labels. Collective.
func checkRowView(c *mpi.Comm, p *Prepared, rng *rand.Rand) error {
	ls, err := lClasses(c, p)
	if err != nil {
		return err
	}
	b := p.blk
	qr, qc := int32(b.qr), int32(b.qc)
	var got [][2]int32
	for a := int32(0); a < b.nRows; a++ {
		row := p.AdjRow(a*qr + int32(b.row))
		labels := row.AppendLabels(nil)
		if row.Len() != len(labels) {
			return fmt.Errorf("row %d: Len %d, %d entries", a, row.Len(), len(labels))
		}
		sorted := true
		row.parts(func(keys []int32, _, _ int32) { sorted = sorted && slices.IsSorted(keys) })
		if !sorted {
			return fmt.Errorf("row %d: a part is not ascending", a)
		}
		for _, u := range labels {
			got = append(got, [2]int32{a, u})
		}
	}
	slices.SortFunc(got, cmpPair)
	want := rowOracle(p, ls)
	if !slices.Equal(got, want) {
		return fmt.Errorf("the view has %d entries in row-major order, the blocks define %d", len(got), len(want))
	}
	present := make(map[[2]int32]bool, len(want))
	for _, e := range want {
		v := e[0]*qr + int32(b.row)
		if !p.HasEdgeLocal(v, e[1]) {
			return fmt.Errorf("HasEdgeLocal(%d, %d) misses an entry", v, e[1])
		}
		present[e] = true
	}
	if nc := b.nCols; nc > 0 {
		for a := int32(0); a < b.nRows; a++ {
			v := a*qr + int32(b.row)
			for range 4 {
				u := rng.Int31n(nc)*qc + int32(b.col)
				if u != v && !present[[2]int32{a, u}] && p.HasEdgeLocal(v, u) {
					return fmt.Errorf("HasEdgeLocal(%d, %d) finds an absent entry", v, u)
				}
			}
		}
	}
	return nil
}

// TestRowViewMatchesBlocks checks the row view (AdjRow, HasEdgeLocal)
// against the definition of a row on every schedule shape: one class per
// rank (Cannon), several U classes (4×2), several L classes (2×4), several
// of both (2×3), and one grid row (1×5).
func TestRowViewMatchesBlocks(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 5)
	for _, w := range []struct{ p, qr, qc int }{{4, 0, 0}, {9, 0, 0}, {6, 2, 3}, {8, 4, 2}, {8, 2, 4}, {5, 1, 5}} {
		name := fmt.Sprintf("p%d-%dx%d", w.p, w.qr, w.qc)
		_, err := mpi.Run(w.p, testCfg(), func(c *mpi.Comm) (any, error) {
			prep, err := prepareOn(c, g, w.qr, w.qc, EnumJIK)
			if err != nil {
				return nil, err
			}
			if err := checkRowView(c, prep, rand.New(rand.NewSource(int64(c.Rank())))); err != nil {
				t.Errorf("%s rank %d: %v", name, c.Rank(), err)
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
