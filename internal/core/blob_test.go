package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
	"tc2d/internal/rmat"
)

// blockArrays maps every resident block of p to where its array starts.
func blockArrays(p *core.Prepared) map[string]uintptr {
	out := make(map[string]uintptr)
	for _, s := range core.ResidentSpans(p) {
		if s.Name != "taskRows" && s.Name != "labels" && !strings.HasPrefix(s.Name, "scratch.") {
			out[s.Name] = s.Beg
		}
	}
	return out
}

// moved counts the arrays of before that start elsewhere in after, and those
// that stayed.
func moved(before, after map[string]uintptr) (gone, stayed int64) {
	for name, beg := range before {
		if after[name] == beg {
			stayed++
		} else {
			gone++
		}
	}
	return gone, stayed
}

// TestResidentBlocksAreTheirBlobs walks a Prepared value through every path
// that allocates or moves a resident block — the pipeline on both schedules
// (and the broadcast one forced onto a square grid), GrowTo beyond and
// within an array's capacity, a splice that outgrows its blocks and one that
// shrinks them past their slack bound, snapshot decode and delta replay,
// both rebuilds — and checks after each that every created block is its own
// blob (core.OwnBlobs): what a count ships is the resident bytes as they
// stand. The differential tests check
// the counts over the same paths.
func TestResidentBlocksAreTheirBlobs(t *testing.T) {
	g, err := rmat.G500.Generate(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.N)
	var ins, del []delta.Update
	for v := int32(0); v < n; v++ {
		ins = append(ins, delta.Update{U: v, V: (v*37 + 11) % n, Op: delta.OpInsert})
		for _, u := range g.Neighbors(v) {
			if u > v {
				del = append(del, delta.Update{U: v, V: u, Op: delta.OpDelete})
			}
		}
	}
	// Six ids add a local to every row and column class of these grids.
	grow := []delta.Update{{U: 6, Op: delta.OpAddVertices}}

	for _, w := range []struct {
		p, qr, qc int
		bcast     bool
	}{{4, 2, 2, false}, {6, 2, 3, true}, {4, 2, 2, true}} {
		name := fmt.Sprintf("%dx%d-bcast=%v", w.qr, w.qc, w.bcast)
		fails := make([]error, w.p)
		_, err := mpi.Run(w.p, mpi.Config{ComputeSlots: 4}, func(c *mpi.Comm) (any, error) {
			in, err := dgraph.ScatterInput{Graph: g}.Build(c)
			if err != nil {
				return nil, err
			}
			prep, err := core.PrepareGrid(c, in, w.qr, w.qc, w.bcast, core.Options{})
			if err != nil {
				return nil, err
			}
			reg := obs.NewRegistry()
			prep.SetMetrics(reg)
			reallocs := func() int64 { return int64(reg.Snapshot()["tc_splice_reallocs_total"]) }
			apply := func(raw []delta.Update) error {
				batch, _, err := delta.Canonicalize(raw, prep.N())
				if err == nil {
					_, err = delta.Apply(c, prep, batch)
				}
				return err
			}
			prep.EnableSnapshotTracking()
			base := core.EncodePrepared(prep)

			// Each path returns the state it leaves and a count that is
			// non-zero on some rank when the path did what it is named for.
			for _, path := range []struct {
				name string
				run  func() (*core.Prepared, int64, error)
			}{
				{"Prepare", func() (*core.Prepared, int64, error) { return prep, 1, nil }},
				// Freshly prepared blocks have no room: growing moves them.
				{"GrowTo beyond capacity", func() (*core.Prepared, int64, error) {
					before := blockArrays(prep)
					err := apply(grow)
					gone, _ := moved(before, blockArrays(prep))
					return prep, gone, err
				}},
				{"a splice outgrowing its blocks", func() (*core.Prepared, int64, error) {
					r0 := reallocs()
					err := apply(ins)
					return prep, reallocs() - r0, err
				}},
				// The outgrown blocks took room; six more ids fit in it.
				{"GrowTo within capacity", func() (*core.Prepared, int64, error) {
					before := blockArrays(prep)
					err := apply(grow)
					_, stayed := moved(before, blockArrays(prep))
					return prep, stayed, err
				}},
				// Deleting every original edge leaves the blocks far below
				// their capacity, past the slack bound.
				{"a splice shrinking past the slack bound", func() (*core.Prepared, int64, error) {
					r0 := reallocs()
					err := apply(del)
					return prep, reallocs() - r0, err
				}},
				{"DecodePrepared", func() (*core.Prepared, int64, error) {
					twin, err := core.DecodePrepared(base, c.Rank(), c.Size())
					return twin, 1, err
				}},
				{"DecodeChain", func() (*core.Prepared, int64, error) {
					twin, err := core.DecodeChain([][]byte{base, core.EncodePreparedDelta(prep)}, c.Rank(), c.Size())
					return twin, 1, err
				}},
				{"RebuildIncremental", func() (*core.Prepared, int64, error) {
					_, err := delta.RebuildIncremental(c, prep)
					return prep, 1, err
				}},
				{"Rebuild", func() (*core.Prepared, int64, error) {
					fresh, err := delta.Rebuild(c, prep)
					return fresh, 1, err
				}},
			} {
				p, evidence, err := path.run()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", path.name, err)
				}
				if c.AllreduceInt64(evidence, mpi.OpSum) == 0 {
					return nil, fmt.Errorf("%s: the case is not exercised", path.name)
				}
				// Every rank stops at the first path that failed anywhere.
				failed := int64(0)
				if err := core.OwnBlobs(p); err != nil {
					fails[c.Rank()] = fmt.Errorf("rank %d after %s: %w", c.Rank(), path.name, err)
					failed = 1
				}
				if c.AllreduceInt64(failed, mpi.OpSum) > 0 {
					return nil, nil
				}
			}
			return nil, nil
		})
		if err = errors.Join(append(fails, err)...); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
