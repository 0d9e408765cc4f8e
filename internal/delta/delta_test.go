package delta

import (
	"errors"
	"fmt"
	"strings"
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

// grid is a world for the differential scripts: its size, its process
// grid and schedule, and whether its ranks talk over loopback TCP.
type grid struct {
	ranks, qr, qc int
	summa, tcp    bool
}

// prepareOn prepares g0 on a standing world of the grid's shape.
func prepareOn(t *testing.T, gr grid, g0 *graph.Graph) (*mpi.World, []*core.Prepared) {
	t.Helper()
	cfg := mpi.Config{ComputeSlots: 4}
	w := mpi.NewWorld(gr.ranks, cfg)
	if gr.tcp {
		var err error
		if w, err = mpi.NewTCPWorld(gr.ranks, cfg); err != nil {
			t.Fatal(err)
		}
	}
	preps := make([]*core.Prepared, gr.ranks)
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		var gin *graph.Graph
		if c.Rank() == 0 {
			gin = g0
		}
		d, err := dgraph.ScatterGraph(c, 0, gin)
		if err != nil {
			return nil, err
		}
		preps[c.Rank()], err = core.PrepareGrid(c, d, gr.qr, gr.qc, gr.summa, core.Options{})
		return nil, err
	})
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	return w, preps
}

// applyScripts drives Apply over a standing world and cross-checks every
// batch against a sequential oracle maintained on a mutable edge set and
// vertex count: triangles, M, wedges, the grown vertex space, and a recount
// over the spliced blocks.
func applyScripts(t *testing.T, gr grid, n int32, start []graph.Edge, scripts []script) {
	t.Helper()
	g0, err := graph.FromEdges(n, start)
	if err != nil {
		t.Fatal(err)
	}
	w, preps := prepareOn(t, gr, g0)
	defer w.Close()

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
		// Mutate the oracle the same way: edges naming ids beyond the space
		// grow it, growth ranges follow, a removal drops every incident edge.
		grown := n
		for _, upd := range canon {
			if upd.Op == OpInsert || upd.Op == OpDelete {
				grown = max(grown, upd.V+1) // canonical: U < V
			}
		}
		for _, upd := range canon {
			k := [2]int32{upd.U, upd.V}
			switch upd.Op {
			case OpInsert:
				edges[k] = true
			case OpDelete:
				delete(edges, k)
			case OpAddVertices:
				grown += upd.U
			case OpRemoveVertex:
				for e := range edges {
					if e[0] == upd.U || e[1] == upd.U {
						delete(edges, e)
					}
				}
			}
		}
		if res.GrownTo != int64(grown) {
			t.Errorf("batch %d: grown to %d, oracle %d", bi, res.GrownTo, grown)
		}
		n = grown
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
		// Every kind of entry at once: grow the space by two ids above the
		// edge (5, 8), which itself names an id beyond it; remove vertex 4,
		// dropping 3-4, 4-5 and 4-6 and the triangles 3-4-5 and 3-4-6, so
		// the degrees of its neighbours enter the wedge delta; insert a
		// present edge and delete an absent one; and one effective insert
		// and delete besides.
		{batch: []Update{
			{U: 2, Op: OpAddVertices},
			{U: 4, Op: OpRemoveVertex},
			{U: 3, V: 5, Op: OpInsert},
			{U: 0, V: 1, Op: OpDelete},
			{U: 1, V: 3, Op: OpInsert},
			{U: 1, V: 2, Op: OpDelete},
			{U: 5, V: 8, Op: OpInsert},
		}, inserted: 2, deleted: 4, skippedExisting: 1, skippedMissing: 1},
		// Tear everything down.
		{batch: []Update{
			{U: 0, V: 2, Op: OpDelete}, {U: 3, V: 5, Op: OpDelete},
			{U: 6, V: 3, Op: OpDelete}, {U: 1, V: 3, Op: OpDelete},
			{U: 5, V: 8, Op: OpDelete},
		}, deleted: 5},
	}
	return 8, start, scripts
}

func TestApplyLifecycleCannon(t *testing.T) {
	n, start, scripts := lifecycleScripts()
	for _, gr := range []grid{{ranks: 1, qr: 1, qc: 1}, {ranks: 4, qr: 2, qc: 2}, {ranks: 4, qr: 2, qc: 2, tcp: true}} {
		applyScripts(t, gr, n, start, scripts)
	}
}

// TestApplyEpochMessages pins the messages of one write epoch with inserts
// and deletes, summed over the ranks: three allreduces of 2(p−1) messages
// each (a binomial reduce and a broadcast) and the two delta passes'
// all-to-alls of p(p−1) — 42 at p = 4.
func TestApplyEpochMessages(t *testing.T) {
	const n = int32(64)
	var start []graph.Edge
	for v := int32(0); v < n; v++ {
		start = append(start, graph.Edge{U: v, V: (v + 1) % n})
	}
	g0, err := graph.FromEdges(n, start)
	if err != nil {
		t.Fatal(err)
	}
	canon, _, err := Canonicalize([]Update{
		{U: 0, V: 2, Op: OpInsert}, {U: 7, V: 9, Op: OpInsert},
		{U: 20, V: 21, Op: OpDelete}, {U: 40, V: 41, Op: OpDelete},
	}, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range []grid{
		{ranks: 1, qr: 1, qc: 1}, {ranks: 4, qr: 2, qc: 2}, {ranks: 9, qr: 3, qc: 3},
		{ranks: 6, qr: 2, qc: 3, summa: true},
	} {
		w, preps := prepareOn(t, gr, g0)
		res, err := w.Run(func(c *mpi.Comm) (any, error) {
			r, err := Apply(c, preps[c.Rank()], canon)
			if err == nil && (r.Inserted != 2 || r.Deleted != 2) {
				err = fmt.Errorf("rank %d: %d inserted and %d deleted, want 2 and 2", c.Rank(), r.Inserted, r.Deleted)
			}
			return c.Stats().MsgsSent, err
		})
		w.Close()
		if err != nil {
			t.Fatalf("%+v: %v", gr, err)
		}
		var msgs int64
		for _, m := range res {
			msgs += m.(int64)
		}
		p := int64(gr.ranks)
		if want := 3*2*(p-1) + 2*p*(p-1); msgs != want {
			t.Errorf("%+v: the epoch sent %d messages, want %d", gr, msgs, want)
		}
	}
}

// TestApplyNeedsAnAdjudicator damages every rank's label map so that the
// batch's endpoints resolve to a label no grid row holds: no rank owns the
// update's entry, and Apply fails on every rank instead of guessing.
func TestApplyNeedsAnAdjudicator(t *testing.T) {
	n, start, _ := lifecycleScripts()
	g0, err := graph.FromEdges(n, start)
	if err != nil {
		t.Fatal(err)
	}
	w, preps := prepareOn(t, grid{ranks: 4, qr: 2, qc: 2}, g0)
	defer w.Close()
	for _, prep := range preps {
		beg, labels := prep.Labels()
		bad := make([]int32, len(labels))
		for i := range bad {
			bad[i] = -1
		}
		prep.SetLabels(beg, bad)
	}
	errs := make([]error, len(preps))
	w.Run(func(c *mpi.Comm) (any, error) {
		_, errs[c.Rank()] = Apply(c, preps[c.Rank()], []Update{{U: 1, V: 2, Op: OpInsert}})
		return nil, nil
	})
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "no adjudicating rank") {
			t.Errorf("rank %d: err=%v, want the update to have no adjudicating rank", r, err)
		}
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
		w := mpi.NewWorld(tc.ranks, mpi.Config{ComputeSlots: 4})
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
	for _, gr := range []grid{{ranks: 2, qr: 1, qc: 2, summa: true}, {ranks: 6, qr: 2, qc: 3, summa: true}} {
		applyScripts(t, gr, n, start, scripts)
	}
}
