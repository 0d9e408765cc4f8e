package core_test

import (
	"fmt"
	"slices"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// TestWriteEpochsAgreeOnMaxURow: after every write epoch — delta.Apply and
// the incremental rebuild — every rank holds the same maxURow, and it is the
// longest U row of any rank, the bound the NoDirectHash kernel sizes its
// probing table from. Splice leaves it local; the epoch's last reduction
// must make it exact and replicated. The batches pile edges onto one hub,
// lengthening its rows past every other row, and after a rebuild that moves
// the hub take them off again, so the bound rises and falls; the state's own
// blob must restore after each epoch.
func TestWriteEpochsAgreeOnMaxURow(t *testing.T) {
	g, err := rmat.G500.Generate(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.N)
	var pile, unpile []delta.Update
	for v := int32(2); v < n; v += 3 {
		if !slices.Contains(g.Neighbors(1), v) {
			pile = append(pile, delta.Update{U: 1, V: v, Op: delta.OpInsert})
			unpile = append(unpile, delta.Update{U: 1, V: v, Op: delta.OpDelete})
		}
	}
	for _, w := range []struct{ p, qr, qc int }{{4, 2, 2}, {6, 2, 3}} {
		world := mpi.NewWorld(w.p, mpi.Config{ComputeSlots: 4})
		preps := make([]*core.Prepared, w.p)
		epoch := func(name string, fn func(c *mpi.Comm, prep *core.Prepared) error) {
			t.Helper()
			if _, err := world.Run(func(c *mpi.Comm) (any, error) {
				return nil, fn(c, preps[c.Rank()])
			}); err != nil {
				t.Fatalf("p=%d %s: %v", w.p, name, err)
			}
			var want int64
			for _, prep := range preps {
				_, longest := core.MaxURow(prep)
				want = max(want, longest)
			}
			for r, prep := range preps {
				if got, _ := core.MaxURow(prep); got != want {
					t.Errorf("p=%d after %s: rank %d holds maxURow %d, the longest U row is %d", w.p, name, r, got, want)
				}
				if _, err := core.DecodePrepared(core.EncodePrepared(prep), r, w.p); err != nil {
					t.Errorf("p=%d after %s: rank %d's blob does not restore: %v", w.p, name, r, err)
				}
			}
		}
		epoch("prepare", func(c *mpi.Comm, _ *core.Prepared) error {
			in, err := dgraph.ScatterInput{Graph: g}.Build(c)
			if err != nil {
				return err
			}
			preps[c.Rank()], err = core.PrepareGrid(c, in, w.qr, w.qc, w.qr != w.qc, core.Options{})
			return err
		})
		apply := func(name string, raw []delta.Update) {
			t.Helper()
			batch, _, err := delta.Canonicalize(raw, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			epoch(name, func(c *mpi.Comm, prep *core.Prepared) error {
				_, err := delta.Apply(c, prep, batch)
				return err
			})
		}
		apply("the pile-up", pile)
		epoch("an incremental rebuild", func(c *mpi.Comm, prep *core.Prepared) error {
			st, err := delta.RebuildIncremental(c, prep)
			if err == nil && st.Moved == 0 {
				err = fmt.Errorf("the rebuild moved no row; the case is not exercised")
			}
			return err
		})
		apply("the unpiling", unpile)
		world.Close()
	}
}
