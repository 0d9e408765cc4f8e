package delta

import (
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// TestKernelSizingSurvivesGrowth asserts the bounds the kernel maps are
// sized from — every intersection key below the bitmap length of the
// current vertex count, the resident maxURow ≥ the actual longest U-block
// row — through an update stream that grows the vertex space, piles edges
// onto a hub (lengthening one row far beyond its build-time size), removes
// a vertex, and finally folds the overflow with a rebuild; and a recount
// per step, under the bitmap kernel and under the NoDirectHash probing table
// (sized from maxURow), proving the kernel stays exact on the grown blocks:
// it must match the build-time count moved by every batch's DeltaTriangles.
func TestKernelSizingSurvivesGrowth(t *testing.T) {
	g, err := rmat.G500.Generate(8, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	w := mpi.NewWorld(ranks, mpi.Config{ComputeSlots: 4})
	defer w.Close()
	preps := make([]*core.Prepared, ranks)
	_, err = w.Run(func(c *mpi.Comm) (any, error) {
		var gin *graph.Graph
		if c.Rank() == 0 {
			gin = g
		}
		d, err := dgraph.ScatterGraph(c, 0, gin)
		if err != nil {
			return nil, err
		}
		pr, err := core.Prepare(c, d, core.Options{})
		preps[c.Rank()] = pr
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := seqtc.Count(g)
	validate := func(stage string) {
		t.Helper()
		// A decode runs blocks.check, which re-derives the sizing bounds
		// from the blocks.
		_, err := w.Run(func(c *mpi.Comm) (any, error) {
			_, err := core.DecodePrepared(core.EncodePrepared(preps[c.Rank()]), c.Rank(), c.Size())
			return nil, err
		})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for _, opt := range []core.Options{{}, {NoDirectHash: true}} {
			results, err := w.Run(func(c *mpi.Comm) (any, error) {
				return core.CountPrepared(c, preps[c.Rank()], opt)
			})
			if err != nil {
				t.Fatalf("%s recount %+v: %v", stage, opt, err)
			}
			if got := results[0].(*core.Result).Triangles; got != want {
				t.Fatalf("%s: recount %+v %d, maintained total %d", stage, opt, got, want)
			}
		}
	}
	apply := func(stage string, batch []Update) {
		t.Helper()
		canon, _, err := Canonicalize(batch, preps[0].N())
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		results, err := w.Run(func(c *mpi.Comm) (any, error) {
			return Apply(c, preps[c.Rank()], canon)
		})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want += results[0].(*Result).DeltaTriangles
		validate(stage)
	}
	validate("after build")

	n := int32(preps[0].N())
	// Grow the space: fresh vertices wired to resident anchors.
	var grow []Update
	for i := int32(0); i < 6; i++ {
		grow = append(grow, Update{U: n + i, V: i % n, Op: OpInsert})
	}
	apply("after growth", grow)

	// Lengthen one hub row far past its build-time length: vertex 0 gains
	// an edge to every fourth vertex. maxURow must track the splice.
	var hub []Update
	for v := int32(1); v < n; v += 4 {
		hub = append(hub, Update{U: 0, V: v, Op: OpInsert})
	}
	apply("after hub pile-up", hub)

	apply("after removal", []Update{{U: 0, Op: OpRemoveVertex}})

	// Fold the overflow.
	newPreps := make([]*core.Prepared, ranks)
	_, err = w.Run(func(c *mpi.Comm) (any, error) {
		np, err := Rebuild(c, preps[c.Rank()])
		newPreps[c.Rank()] = np
		return nil, err
	})
	if err != nil {
		t.Fatalf("fold rebuild: %v", err)
	}
	copy(preps, newPreps)
	validate("after fold")
}
