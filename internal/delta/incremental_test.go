package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// TestRebuildIncrementalMatchesFull feeds two twins of the same resident
// state the same Apply batches, then folds one with RebuildIncremental and
// the other with the full Rebuild. Each batch dirties a chosen share of the
// labels, from about 2 % to well over half of N — RebuildIncremental must
// stay exact at any churn, not only below the share at which a cluster
// picks it — and grows the space, so every rebuild also folds an overflow
// region. After every rebuild both twins must count the oracle's triangles
// with BaseN == N, and the next batch routes through both composed maps.
func TestRebuildIncrementalMatchesFull(t *testing.T) {
	for _, tc := range []struct {
		ranks, qr, qc int
		summa         bool
	}{{1, 1, 1, false}, {4, 2, 2, false}, {6, 2, 3, true}} {
		t.Run(fmt.Sprintf("p%d", tc.ranks), func(t *testing.T) {
			twinRebuilds(t, tc.ranks, tc.qr, tc.qc, tc.summa)
		})
	}
}

func twinRebuilds(t *testing.T, ranks, qr, qc int, summa bool) {
	g0, err := rmat.G500.Generate(9, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(ranks, mpi.Config{ComputeSlots: 4})
	defer w.Close()
	inc := make([]*core.Prepared, ranks)  // folded by RebuildIncremental
	full := make([]*core.Prepared, ranks) // replaced by Rebuild
	_, err = w.Run(func(c *mpi.Comm) (any, error) {
		for _, twin := range [][]*core.Prepared{inc, full} {
			var gin *graph.Graph
			if c.Rank() == 0 {
				gin = g0
			}
			d, err := dgraph.ScatterGraph(c, 0, gin)
			if err != nil {
				return nil, err
			}
			if twin[c.Rank()], err = core.PrepareGrid(c, d, qr, qc, summa, core.Options{}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	n := int64(g0.N)
	edges := map[[2]int32]bool{}
	for _, e := range g0.Edges() {
		edges[[2]int32{min(e.U, e.V), max(e.U, e.V)}] = true
	}
	oracle := func() int64 {
		list := make([]graph.Edge, 0, len(edges))
		for e := range edges {
			list = append(list, graph.Edge{U: e[0], V: e[1]})
		}
		g, err := graph.FromEdges(int32(n), list)
		if err != nil {
			t.Fatal(err)
		}
		return seqtc.Count(g)
	}
	count := func(twin []*core.Prepared) int64 {
		results, err := w.Run(func(c *mpi.Comm) (any, error) {
			return core.CountPrepared(c, twin[c.Rank()], core.Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		return results[0].(*core.Result).Triangles
	}

	rng := rand.New(rand.NewSource(int64(ranks)))
	minFrac, maxFrac := 1.0, 0.0
	for round, share := range []float64{0.02, 0.05, 0.1, 0.25, 0.5, 0.7} {
		// Pair up the first k vertices of a shuffle: every pair toggles its
		// edge, so exactly those k labels change degree. Two arrivals grow
		// the space past the labelled region.
		perm := rng.Perm(int(n))
		k := int(share*float64(n)) &^ 1
		var batch []Update
		for i := 0; i < k; i += 2 {
			u, v := int32(perm[i]), int32(perm[i+1])
			key := [2]int32{min(u, v), max(u, v)}
			op := OpInsert
			if edges[key] {
				op = OpDelete
			}
			batch = append(batch, Update{U: u, V: v, Op: op})
		}
		for j := 0; j < 2; j++ {
			batch = append(batch, Update{U: int32(n) + int32(j), V: int32(perm[k+j]), Op: OpInsert})
		}
		canon, _, err := Canonicalize(batch, n)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var deltas [2]int64
		for i, twin := range [][]*core.Prepared{inc, full} {
			results, err := w.Run(func(c *mpi.Comm) (any, error) {
				return Apply(c, twin[c.Rank()], canon)
			})
			if err != nil {
				t.Fatalf("round %d apply: %v", round, err)
			}
			deltas[i] = results[0].(*Result).DeltaTriangles
		}
		if deltas[0] != deltas[1] {
			t.Fatalf("round %d: twins disagree on the batch delta: %d vs %d", round, deltas[0], deltas[1])
		}
		for _, upd := range canon {
			key := [2]int32{upd.U, upd.V}
			if upd.Op == OpInsert {
				edges[key] = true
			} else {
				delete(edges, key)
			}
		}
		n += 2
		frac := float64(inc[0].DegreeDirtyCount()) / float64(inc[0].N())
		minFrac, maxFrac = min(minFrac, frac), max(maxFrac, frac)

		_, err = w.Run(func(c *mpi.Comm) (any, error) {
			_, err := RebuildIncremental(c, inc[c.Rank()])
			return nil, err
		})
		if err != nil {
			t.Fatalf("round %d (dirty %.2f of N): incremental rebuild: %v", round, frac, err)
		}
		rebuilt := make([]*core.Prepared, ranks)
		_, err = w.Run(func(c *mpi.Comm) (any, error) {
			var err error
			rebuilt[c.Rank()], err = Rebuild(c, full[c.Rank()])
			return nil, err
		})
		if err != nil {
			t.Fatalf("round %d (dirty %.2f of N): full rebuild: %v", round, frac, err)
		}
		full = rebuilt

		want := oracle()
		for name, twin := range map[string][]*core.Prepared{"incremental": inc, "full": full} {
			for r, pr := range twin {
				if pr.N() != n || pr.BaseN() != n {
					t.Fatalf("round %d: %s rank %d has N=%d BaseN=%d, want both %d", round, name, r, pr.N(), pr.BaseN(), n)
				}
			}
			if got := count(twin); got != want {
				t.Fatalf("round %d (dirty %.2f of N): %s twin counts %d, oracle %d", round, frac, name, got, want)
			}
		}
	}
	t.Logf("dirty fractions %.3f..%.3f of N", minFrac, maxFrac)
	if minFrac > 0.03 || maxFrac < 0.5 {
		t.Errorf("dirty fractions spanned only %.3f..%.3f of N", minFrac, maxFrac)
	}
}
