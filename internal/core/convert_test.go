package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// TestIJKStateConvertsToJIK: a state built for the ⟨i,j,k⟩ rule refuses
// writes with delta.ErrIJKLayout; converted, it is byte for byte the state
// the pipeline builds for ⟨j,i,k⟩ and takes writes; and a delta snapshot
// written after the conversion replays onto the ⟨i,j,k⟩ base it hangs off,
// to the live state's bytes. Cannon and SUMMA grids.
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
		p, qr, qc int
		bcast     bool
	}{{4, 2, 2, false}, {6, 2, 3, true}} {
		name := fmt.Sprintf("%dx%d-bcast=%v", w.qr, w.qc, w.bcast)
		_, err := mpi.Run(w.p, mpi.Config{Model: mpi.ZeroCostModel(), ComputeSlots: 4}, func(c *mpi.Comm) (any, error) {
			prepare := func(enum core.Enumeration) (*core.Prepared, error) {
				in, err := dgraph.ScatterInput{Graph: g}.Build(c)
				if err != nil {
					return nil, err
				}
				return core.PrepareGrid(c, in, w.qr, w.qc, w.bcast, core.Options{Enumeration: enum})
			}
			prep, err := prepare(core.EnumIJK)
			if err != nil {
				return nil, err
			}
			jik, err := prepare(core.EnumJIK)
			if err != nil {
				return nil, err
			}
			if _, err := delta.Apply(c, prep, batch); !errors.Is(err, delta.ErrIJKLayout) {
				return nil, fmt.Errorf("Apply on an ⟨i,j,k⟩ state: %v, want ErrIJKLayout", err)
			}
			base := core.EncodePrepared(prep)
			prep.ConvertToJIK()
			if !bytes.Equal(core.EncodePrepared(prep), core.EncodePrepared(jik)) {
				return nil, fmt.Errorf("rank %d: the converted state does not encode as the ⟨j,i,k⟩ build", c.Rank())
			}
			prep.EnableSnapshotTracking()
			if _, err := delta.Apply(c, prep, batch); err != nil {
				return nil, err
			}
			twin, err := core.DecodePrepared(base, c.Rank(), c.Size())
			if err != nil {
				return nil, err
			}
			if err := core.ApplyPreparedDelta(twin, core.EncodePreparedDelta(prep), c.Rank(), c.Size()); err != nil {
				return nil, err
			}
			if !bytes.Equal(core.EncodePrepared(twin), core.EncodePrepared(prep)) {
				return nil, fmt.Errorf("rank %d: the ⟨i,j,k⟩ base plus the delta does not encode as the live state", c.Rank())
			}
			return nil, nil
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
