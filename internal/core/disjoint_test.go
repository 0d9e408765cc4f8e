package core_test

import (
	"fmt"
	"sort"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// disjoint fails if two resident arrays of p could write to the same
// memory: the splice writes anywhere inside an array's capacity, so arrays
// carved from one allocation — or a block aliasing another — would stomp
// each other.
func disjoint(p *core.Prepared, when string) error {
	spans := core.ResidentSpans(p)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Beg < spans[j].Beg })
	for i := 1; i < len(spans); i++ {
		if a, b := spans[i-1], spans[i]; a.End > b.Beg {
			return fmt.Errorf("after %s: resident arrays %s and %s share storage", when, a.Name, b.Name)
		}
	}
	return nil
}

// TestResidentArraysDisjoint walks a Prepared value through every way its
// arrays come into being — the pipeline, elastic growth, in-place splices,
// snapshot decode and delta replay, both rebuilds — on both grid kinds,
// checking after each that no two resident arrays overlap anywhere within
// their capacities.
func TestResidentArraysDisjoint(t *testing.T) {
	g, err := rmat.G500.Generate(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.N)
	// A batch that grows the vertex space, creates and empties rows.
	var raw []delta.Update
	for v := int32(0); v < 40; v++ {
		raw = append(raw,
			delta.Update{U: v, V: n + v%7, Op: delta.OpInsert},
			delta.Update{U: v, V: (v*37 + 11) % n, Op: delta.OpInsert},
			delta.Update{U: v, V: (v*53 + 5) % n, Op: delta.OpDelete})
	}
	raw = append(raw, delta.Update{U: 3, Op: delta.OpAddVertices})
	batch, _, err := delta.Canonicalize(raw, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ p, qr, qc int }{{4, 0, 0}, {9, 0, 0}, {6, 2, 3}} {
		name := fmt.Sprintf("p%d-%dx%d", w.p, w.qr, w.qc)
		_, err := mpi.Run(w.p, mpi.Config{ComputeSlots: 4}, func(c *mpi.Comm) (any, error) {
			in, err := dgraph.ScatterInput{Graph: g}.Build(c)
			if err != nil {
				return nil, err
			}
			var prep *core.Prepared
			if w.qr > 0 {
				prep, err = core.PrepareGrid(c, in, w.qr, w.qc, true, core.Options{})
			} else {
				prep, err = core.Prepare(c, in, core.Options{})
			}
			if err != nil {
				return nil, err
			}
			if err := disjoint(prep, "Prepare"); err != nil {
				return nil, err
			}
			prep.EnableSnapshotTracking()
			base := core.EncodePrepared(prep)

			// GrowTo and Splice, twice so the second splice works inside
			// the slack the first one left.
			for round, b := range [][]delta.Update{batch, {{U: 1, V: n + 9, Op: delta.OpInsert}, {U: 2, V: n + 1, Op: delta.OpInsert}}} {
				if _, err := delta.Apply(c, prep, b); err != nil {
					return nil, err
				}
				if err := disjoint(prep, fmt.Sprintf("Apply %d", round)); err != nil {
					return nil, err
				}
			}

			twin, err := core.DecodePrepared(base, c.Rank(), c.Size())
			if err != nil {
				return nil, err
			}
			if err := disjoint(twin, "DecodePrepared"); err != nil {
				return nil, err
			}
			twin, err = core.DecodeChain([][]byte{base, core.EncodePreparedDelta(prep)}, c.Rank(), c.Size())
			if err != nil {
				return nil, err
			}
			if err := disjoint(twin, "DecodeChain"); err != nil {
				return nil, err
			}

			if _, err := delta.RebuildIncremental(c, prep); err != nil {
				return nil, err
			}
			if err := disjoint(prep, "RebuildIncremental"); err != nil {
				return nil, err
			}
			fresh, err := delta.Rebuild(c, prep)
			if err != nil {
				return nil, err
			}
			return nil, disjoint(fresh, "Rebuild")
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
