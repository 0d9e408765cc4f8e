package core_test

import (
	"fmt"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// TestShiftLOperandsMatchReference holds the L operand of every step of the
// shift schedule — the U block of the transposed rank, shifted — to the L
// block as it used to be built (core.CheckLOperands), and requires that no
// rank keeps an L class: on Cannon grids of 1, 4, 9 and 16 ranks over a
// skewed and a flat graph, after Prepare, after update batches that mix
// insertions, deletions, vertex arrivals and a vertex removal, after an
// incremental rebuild and after a full one.
func TestShiftLOperandsMatchReference(t *testing.T) {
	rm, err := rmat.G500.Generate(8, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	er, err := rmat.ErdosRenyi(300, 1200, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rm}, {"er", er}} {
		for _, p := range []int{1, 4, 9, 16} {
			name := fmt.Sprintf("%s/p=%d", gc.name, p)
			w := mpi.NewWorld(p, mpi.Config{ComputeSlots: 4})
			preps := make([]*core.Prepared, p)
			write := func(when string, fn func(c *mpi.Comm, r int) error) {
				t.Helper()
				if _, err := w.Run(func(c *mpi.Comm) (any, error) { return nil, fn(c, c.Rank()) }); err != nil {
					t.Fatalf("%s %s: %v", name, when, err)
				}
				if _, err := w.RunRead(func(c *mpi.Comm) (any, error) { return nil, core.CheckLOperands(c, preps) }); err != nil {
					t.Fatalf("%s after %s: %v", name, when, err)
				}
			}
			write("Prepare", func(c *mpi.Comm, r int) (err error) {
				in, err := dgraph.ScatterInput{Graph: gc.g}.Build(c)
				if err == nil {
					preps[r], err = core.Prepare(c, in, core.Options{})
				}
				return err
			})
			write("update batches", func(c *mpi.Comm, r int) error {
				for b := int32(0); b < 4; b++ {
					n := int32(preps[r].N())
					raw := []delta.Update{{U: 3, Op: delta.OpAddVertices}}
					deleted := make(map[[2]int32]bool)
					for v := b; v+1 < n; v += 7 {
						raw = append(raw, delta.Update{U: v, V: v + 1, Op: delta.OpDelete})
						deleted[[2]int32{v, v + 1}] = true
					}
					for v := b; v < n; v += 7 {
						u := (v*37 + 11 + b) % (n + 3)
						if !deleted[[2]int32{min(u, v), max(u, v)}] {
							raw = append(raw, delta.Update{U: v, V: u, Op: delta.OpInsert})
						}
					}
					if b == 2 {
						raw = append(raw, delta.Update{U: 0, Op: delta.OpRemoveVertex})
					}
					batch, _, err := delta.Canonicalize(raw, int64(n))
					if err == nil {
						_, err = delta.Apply(c, preps[r], batch)
					}
					if err != nil {
						return fmt.Errorf("batch %d: %w", b, err)
					}
				}
				return nil
			})
			write("an incremental rebuild", func(c *mpi.Comm, r int) error {
				_, err := delta.RebuildIncremental(c, preps[r])
				return err
			})
			write("a full rebuild", func(c *mpi.Comm, r int) (err error) {
				preps[r], err = delta.Rebuild(c, preps[r])
				return err
			})
			w.Close()
		}
	}
}
