package dgraph

import (
	"slices"
	"testing"

	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

func TestDegreeLabelsPermutationAndOrder(t *testing.T) {
	g, err := rmat.G500.Generate(8, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 5} {
		p := p
		results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
			var full *graph.Graph
			if c.Rank() == 0 {
				full = g
			}
			in, err := ScatterGraph(c, 0, full)
			if err != nil {
				return nil, err
			}
			var ops int64
			labels, err := DegreeLabels(c, in.N, in.VBeg, in.Degrees(), slices.Values([][]int32{slices.Clone(in.Adj)}), nil, &ops)
			if err != nil {
				return nil, err
			}
			if ops == 0 {
				t.Errorf("p=%d rank %d: no ops recorded", p, c.Rank())
			}
			// Return (label, degree) pairs.
			out := make([]int64, 0, 2*len(labels))
			for lv, w := range labels {
				out = append(out, int64(w), in.Xadj[lv+1]-in.Xadj[lv])
			}
			return out, nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		deg := make([]int64, g.N)
		seen := make([]bool, g.N)
		for _, r := range results {
			v := r.([]int64)
			for i := 0; i < len(v); i += 2 {
				if seen[v[i]] {
					t.Fatalf("p=%d: duplicate label %d", p, v[i])
				}
				seen[v[i]] = true
				deg[v[i]] = v[i+1]
			}
		}
		for w := int32(1); w < g.N; w++ {
			if deg[w] < deg[w-1] {
				t.Fatalf("p=%d: degree order violated at %d", p, w)
			}
		}
	}
}

func TestRelabelByDegreeRoundtrip(t *testing.T) {
	// The relabeled, redistributed graph must be isomorphic to the
	// degree-ordered sequential relabeling: same degree sequence by new
	// id, symmetric, and with Above splitting each list at the vertex.
	g, err := rmat.Twitterish.Generate(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ordered, _ := g.DegreeOrder()
	for _, p := range []int{1, 4} {
		p := p
		results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
			var full *graph.Graph
			if c.Rank() == 0 {
				full = g
			}
			in, err := ScatterGraph(c, 0, full)
			if err != nil {
				return nil, err
			}
			rel := RelabelByDegree(c, in)
			// Per-vertex sanity: sorted lists, Above splits each list at v.
			for v := rel.VBeg; v < rel.VEnd; v++ {
				row := rel.Neighbors(v)
				for i := 1; i < len(row); i++ {
					if row[i-1] >= row[i] {
						t.Errorf("rank %d: unsorted adjacency at %d", c.Rank(), v)
					}
				}
				if below := row[:len(row)-len(rel.Above(v))]; len(below) > 0 && below[len(below)-1] >= v {
					t.Errorf("rank %d: above/below not a partition at %d", c.Rank(), v)
				}
			}
			return gather1D(c, rel)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		got := results[0].(*graph.Graph)
		if got.N != ordered.N {
			t.Fatalf("p=%d: N mismatch", p)
		}
		// Degree sequences by new label must agree with the sequential
		// degree ordering (the permutations may differ within ties, but
		// the degree at each position may not).
		for v := int32(0); v < got.N; v++ {
			if got.Degree(v) != ordered.Degree(v) {
				t.Fatalf("p=%d: degree at new id %d: %d vs %d", p, v, got.Degree(v), ordered.Degree(v))
			}
		}
		// Triangle-preserving: same edge count and the gathered graph
		// validates as simple and symmetric.
		if got.NumEdges() != g.NumEdges() {
			t.Fatalf("p=%d: edge count changed", p)
		}
		if err := wellFormed(got); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}
