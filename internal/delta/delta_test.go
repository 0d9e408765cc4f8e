package delta

import (
	"errors"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/seqtc"
)

func TestCanonicalize(t *testing.T) {
	canon, loops, err := Canonicalize([]Update{
		{U: 3, V: 1, Op: OpInsert}, // normalized to (1,3)
		{U: 2, V: 2, Op: OpInsert}, // self loop, dropped
		{U: 1, V: 3, Op: OpInsert}, // duplicate of the first
		{U: 0, V: 1, Op: OpDelete},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if loops != 1 {
		t.Errorf("loops=%d, want 1", loops)
	}
	want := []Update{{U: 0, V: 1, Op: OpDelete}, {U: 1, V: 3, Op: OpInsert}}
	if len(canon) != len(want) {
		t.Fatalf("canon=%v, want %v", canon, want)
	}
	for i := range want {
		if canon[i] != want[i] {
			t.Fatalf("canon=%v, want %v", canon, want)
		}
	}

	// Elastic vertex space: ids at or beyond n are admitted (the apply
	// pre-pass grows the graph); only impossible ids are rejected.
	if _, _, err := Canonicalize([]Update{{U: 0, V: 9, Op: OpInsert}}, 8); err != nil {
		t.Errorf("beyond-range edge should be admitted (growth), got %v", err)
	}
	if _, _, err := Canonicalize([]Update{{U: -1, V: 2, Op: OpInsert}}, 8); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative endpoint: err=%v, want ErrVertexRange", err)
	}
	if _, _, err := Canonicalize([]Update{
		{U: 0, V: 1, Op: OpInsert},
		{U: 1, V: 0, Op: OpDelete},
	}, 8); err == nil {
		t.Error("insert+delete of the same edge should fail")
	}
}

func TestCanonicalizeVertexOps(t *testing.T) {
	canon, _, err := Canonicalize([]Update{
		{U: 5, V: 6, Op: OpInsert},
		{U: 2, Op: OpAddVertices},
		{U: 4, Op: OpRemoveVertex},
		{U: 3, Op: OpAddVertices},
		{U: 4, Op: OpRemoveVertex}, // duplicate removal collapses
		{U: 1, Op: OpRemoveVertex},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{
		{U: 5, Op: OpAddVertices}, // merged growth leads
		{U: 1, Op: OpRemoveVertex},
		{U: 4, Op: OpRemoveVertex},
		{U: 5, V: 6, Op: OpInsert},
	}
	if len(canon) != len(want) {
		t.Fatalf("canon=%v, want %v", canon, want)
	}
	for i := range want {
		if canon[i] != want[i] {
			t.Fatalf("canon=%v, want %v", canon, want)
		}
	}

	if _, _, err := Canonicalize([]Update{{U: 9, Op: OpRemoveVertex}}, 8); !errors.Is(err, ErrVertexRange) {
		t.Errorf("removal beyond the space: err=%v, want ErrVertexRange", err)
	}
	if _, _, err := Canonicalize([]Update{{U: 0, Op: OpAddVertices}}, 8); err == nil {
		t.Error("non-positive growth count should fail")
	}
	if _, _, err := Canonicalize([]Update{
		{U: 3, Op: OpRemoveVertex},
		{U: 3, V: 5, Op: OpInsert},
	}, 8); err == nil {
		t.Error("removal plus an incident edge update should fail")
	}
}

// script is one batch plus the expected effective/skip counts.
type script struct {
	batch           []Update
	inserted        int
	deleted         int
	skippedExisting int
	skippedMissing  int
}

// applyScripts drives Apply over a standing world and cross-checks every
// batch against a sequential oracle maintained on a mutable edge set.
func applyScripts(t *testing.T, ranks, qr, qc int, summa bool, n int32, start []graph.Edge, scripts []script) {
	t.Helper()
	g0, err := graph.FromEdges(n, start)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(ranks, mpi.Config{Model: mpi.ZeroCostModel(), ComputeSlots: 4})
	defer w.Close()
	preps := make([]*core.Prepared, ranks)
	_, err = w.Run(func(c *mpi.Comm) (any, error) {
		var gin *graph.Graph
		if c.Rank() == 0 {
			gin = g0
		}
		d, err := dgraph.ScatterGraph(c, 0, gin)
		if err != nil {
			return nil, err
		}
		preps[c.Rank()], err = core.PrepareGrid(c, d, qr, qc, summa, core.Options{})
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}

	edges := map[[2]int32]bool{}
	for _, e := range start {
		edges[[2]int32{e.U, e.V}] = true
	}
	oracle := func() *graph.Graph {
		list := make([]graph.Edge, 0, len(edges))
		for e := range edges {
			list = append(list, graph.Edge{U: e[0], V: e[1]})
		}
		g, err := graph.FromEdges(n, list)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	running := seqtc.Count(g0)

	for bi, sc := range scripts {
		canon, _, err := Canonicalize(sc.batch, int64(n))
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		var res *Result
		_, err = w.Run(func(c *mpi.Comm) (any, error) {
			r, err := Apply(c, preps[c.Rank()], canon)
			if err == nil && c.Rank() == 0 {
				res = r
			}
			return nil, err
		})
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		// Mutate the oracle edge set the same way.
		for _, upd := range canon {
			k := [2]int32{upd.U, upd.V}
			if upd.Op == OpInsert && !edges[k] {
				edges[k] = true
			} else if upd.Op == OpDelete && edges[k] {
				delete(edges, k)
			}
		}
		gm := oracle()
		want := seqtc.Count(gm)
		running += res.DeltaTriangles
		if running != want {
			t.Errorf("batch %d: maintained count %d, oracle %d", bi, running, want)
		}
		if res.Inserted != sc.inserted || res.Deleted != sc.deleted ||
			res.SkippedExisting != sc.skippedExisting || res.SkippedMissing != sc.skippedMissing {
			t.Errorf("batch %d: got ins=%d del=%d skipE=%d skipM=%d, want %+v",
				bi, res.Inserted, res.Deleted, res.SkippedExisting, res.SkippedMissing, sc)
		}
		if res.M != gm.NumEdges() {
			t.Errorf("batch %d: M=%d, oracle %d", bi, res.M, gm.NumEdges())
		}
		var wedges int64
		for v := int32(0); v < gm.N; v++ {
			d := int64(gm.Degree(v))
			wedges += d * (d - 1) / 2
		}
		if res.Wedges != wedges {
			t.Errorf("batch %d: Wedges=%d, oracle %d", bi, res.Wedges, wedges)
		}
		// A fresh distributed count over the spliced blocks must agree.
		results, err := w.Run(func(c *mpi.Comm) (any, error) {
			return core.CountPrepared(c, preps[c.Rank()], core.Options{})
		})
		if err != nil {
			t.Fatalf("batch %d recount: %v", bi, err)
		}
		if got := results[0].(*core.Result).Triangles; got != want {
			t.Errorf("batch %d: recount over spliced blocks %d, oracle %d", bi, got, want)
		}
	}
}

func lifecycleScripts() (int32, []graph.Edge, []script) {
	start := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 3, V: 4}}
	scripts := []script{
		// Close the first triangle; one redundant insert skips.
		{batch: []Update{{U: 1, V: 2, Op: OpInsert}, {U: 0, V: 1, Op: OpInsert}},
			inserted: 1, skippedExisting: 1},
		// Build a second triangle entirely from new edges.
		{batch: []Update{{U: 4, V: 5, Op: OpInsert}, {U: 3, V: 5, Op: OpInsert}},
			inserted: 2},
		// Mixed batch: break triangle one, wire vertex 6 into a triangle
		// with 3-4, delete a missing edge.
		{batch: []Update{
			{U: 0, V: 1, Op: OpDelete},
			{U: 6, V: 3, Op: OpInsert},
			{U: 6, V: 4, Op: OpInsert},
			{U: 1, V: 6, Op: OpDelete},
		}, inserted: 2, deleted: 1, skippedMissing: 1},
		// Tear everything down.
		{batch: []Update{
			{U: 1, V: 2, Op: OpDelete}, {U: 0, V: 2, Op: OpDelete},
			{U: 3, V: 4, Op: OpDelete}, {U: 4, V: 5, Op: OpDelete},
			{U: 3, V: 5, Op: OpDelete}, {U: 6, V: 3, Op: OpDelete},
			{U: 6, V: 4, Op: OpDelete},
		}, deleted: 7},
	}
	return 8, start, scripts
}

func TestApplyLifecycleCannon(t *testing.T) {
	n, start, scripts := lifecycleScripts()
	for _, ranks := range []int{1, 4} {
		q := 1
		if ranks == 4 {
			q = 2
		}
		applyScripts(t, ranks, q, q, false, n, start, scripts)
	}
}

// TestRebuildComposesLabels checks the staleness path end to end: apply a
// batch, rebuild (fresh degree ordering and blocks), then apply ANOTHER
// batch routed through the composed original→label map, verifying counts
// against the sequential oracle at every step.
func TestRebuildComposesLabels(t *testing.T) {
	const n = int32(64)
	var start []graph.Edge
	for v := int32(0); v < n; v++ { // ring plus chords: plenty of wedges
		start = append(start, graph.Edge{U: v, V: (v + 1) % n})
		if v%3 == 0 {
			start = append(start, graph.Edge{U: v, V: (v + 7) % n})
		}
	}
	g0, err := graph.FromEdges(n, start)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ranks, qr, qc int
		summa         bool
	}{{4, 2, 2, false}, {6, 2, 3, true}} {
		w := mpi.NewWorld(tc.ranks, mpi.Config{Model: mpi.ZeroCostModel(), ComputeSlots: 4})
		preps := make([]*core.Prepared, tc.ranks)
		_, err := w.Run(func(c *mpi.Comm) (any, error) {
			var gin *graph.Graph
			if c.Rank() == 0 {
				gin = g0
			}
			d, err := dgraph.ScatterGraph(c, 0, gin)
			if err != nil {
				return nil, err
			}
			preps[c.Rank()], err = core.PrepareGrid(c, d, tc.qr, tc.qc, tc.summa, core.Options{})
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}

		edges := map[[2]int32]bool{}
		for _, e := range start {
			edges[[2]int32{e.U, e.V}] = true
		}
		running := seqtc.Count(g0)
		step := func(name string, batch []Update) {
			canon, _, err := Canonicalize(batch, int64(n))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var res *Result
			_, err = w.Run(func(c *mpi.Comm) (any, error) {
				r, err := Apply(c, preps[c.Rank()], canon)
				if err == nil && c.Rank() == 0 {
					res = r
				}
				return nil, err
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, upd := range canon {
				k := [2]int32{upd.U, upd.V}
				if upd.Op == OpInsert {
					edges[k] = true
				} else {
					delete(edges, k)
				}
			}
			running += res.DeltaTriangles
			var list []graph.Edge
			for e := range edges {
				list = append(list, graph.Edge{U: e[0], V: e[1]})
			}
			gm, err := graph.FromEdges(n, list)
			if err != nil {
				t.Fatal(err)
			}
			if want := seqtc.Count(gm); running != want {
				t.Errorf("%s (ranks=%d): maintained %d, oracle %d", name, tc.ranks, running, want)
			}
		}

		// Batch 1: close triangles along the ring.
		step("pre-rebuild", []Update{
			{U: 0, V: 2, Op: OpInsert}, {U: 1, V: 3, Op: OpInsert},
			{U: 5, V: 6, Op: OpDelete}, {U: 10, V: 12, Op: OpInsert},
		})

		// Rebuild: fresh ordering, composed label map.
		newPreps := make([]*core.Prepared, tc.ranks)
		_, err = w.Run(func(c *mpi.Comm) (any, error) {
			np, err := Rebuild(c, preps[c.Rank()])
			newPreps[c.Rank()] = np
			return nil, err
		})
		if err != nil {
			t.Fatalf("rebuild (ranks=%d): %v", tc.ranks, err)
		}
		preps = newPreps
		results, err := w.Run(func(c *mpi.Comm) (any, error) {
			return core.CountPrepared(c, preps[c.Rank()], core.Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := results[0].(*core.Result).Triangles; got != running {
			t.Errorf("post-rebuild recount %d, maintained %d", got, running)
		}

		// Batch 2 routes through the composed map.
		step("post-rebuild", []Update{
			{U: 2, V: 4, Op: OpInsert}, {U: 0, V: 2, Op: OpDelete},
			{U: 20, V: 22, Op: OpInsert}, {U: 21, V: 23, Op: OpInsert},
		})
		w.Close()
	}
}

func TestApplyLifecycleSUMMA(t *testing.T) {
	n, start, scripts := lifecycleScripts()
	applyScripts(t, 2, 1, 2, true, n, start, scripts)
	applyScripts(t, 6, 2, 3, true, n, start, scripts)
}
