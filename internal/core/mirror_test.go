package core

import (
	"fmt"
	"slices"
	"testing"

	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// mirrorOracle lists this rank's (row, label) mirror entries straight from
// the block definitions — every U and L entry converted back to global
// labels — and sorts them with a comparison sort.
func mirrorOracle(p *Prepared) [][2]int32 {
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
	for i, l := range b.l {
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

// TestMirrorMatchesBlocks checks EnsureAdjacency against the definition of
// the mirror on every schedule shape: one class per rank (Cannon), several
// U classes (4×2), several L classes (2×4), several of both (2×3, 1×5).
func TestMirrorMatchesBlocks(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 5)
	for _, w := range []struct{ p, qr, qc int }{{4, 0, 0}, {9, 0, 0}, {6, 2, 3}, {8, 4, 2}, {8, 2, 4}, {5, 1, 5}} {
		for _, enum := range []Enumeration{EnumJIK, EnumIJK} {
			name := fmt.Sprintf("p%d-%dx%d-%v", w.p, w.qr, w.qc, enum)
			_, err := mpi.Run(w.p, testCfg(), func(c *mpi.Comm) (any, error) {
				prep, err := prepareOn(c, g, w.qr, w.qc, enum)
				if err != nil {
					return nil, err
				}
				prep.EnsureAdjacency()
				var got [][2]int32
				m := prep.mirror
				for a := int32(0); a < m.rows; a++ {
					for _, u := range m.row(a) {
						got = append(got, [2]int32{a, u})
					}
				}
				if want := mirrorOracle(prep); !slices.Equal(got, want) {
					t.Errorf("%s rank %d: mirror has %d entries in row-major order, the blocks define %d", name, c.Rank(), len(got), len(want))
				}
				return nil, nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
