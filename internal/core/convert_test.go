package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// TestIJKStateConvertsToJIK: a legacy ⟨i,j,k⟩ base blob of the compat
// corpus (testdata/compat, over RMAT s8/ef8/seed 3) decodes to a ⟨j,i,k⟩
// state that takes writes, and the delta snapshot written after them
// replays onto the legacy base it hangs off, to the live state's bytes.
// Cannon, SUMMA and SUMMA forced onto a square grid.
func TestIJKStateConvertsToJIK(t *testing.T) {
	g, err := rmat.G500.Generate(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.N)
	var raw []delta.Update
	for v := int32(0); v < 40; v++ {
		raw = append(raw,
			delta.Update{U: v, V: (v*37 + 11) % n, Op: delta.OpInsert},
			delta.Update{U: v, V: (v*53 + 5) % n, Op: delta.OpDelete})
	}
	batch, _, err := delta.Canonicalize(raw, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		p    int
	}{{"cannon4", 4}, {"summa2x3", 6}, {"forcesumma2x2", 4}} {
		_, err := mpi.Run(w.p, mpi.Config{ComputeSlots: 4}, func(c *mpi.Comm) (any, error) {
			base, err := os.ReadFile(filepath.Join("testdata", "compat", fmt.Sprintf("%s-ijk.r%d.base", w.name, c.Rank())))
			if err != nil {
				return nil, err
			}
			prep, err := core.DecodePrepared(base, c.Rank(), c.Size())
			if err != nil {
				return nil, err
			}
			prep.EnableSnapshotTracking()
			if _, err := delta.Apply(c, prep, batch); err != nil {
				return nil, err
			}
			twin, err := core.DecodeChain([][]byte{base, core.EncodePreparedDelta(prep)}, c.Rank(), c.Size())
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(core.EncodePrepared(twin), core.EncodePrepared(prep)) {
				return nil, fmt.Errorf("rank %d: the ⟨i,j,k⟩ base plus the delta does not encode as the live state", c.Rank())
			}
			return nil, nil
		})
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
