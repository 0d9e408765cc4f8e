package dgraph

import (
	"errors"
	"slices"
	"testing"

	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

func testCfg() mpi.Config {
	return mpi.Config{ComputeSlots: 4}
}

// gather1D reassembles d into a full graph on rank 0 (nil elsewhere).
func gather1D(c *mpi.Comm, d *Dist1D) (*graph.Graph, error) {
	degs := make([]int64, d.NumLocal())
	for v := range degs {
		degs[v] = d.Xadj[v+1] - d.Xadj[v]
	}
	toRoot := func(b []byte) [][]byte {
		send := make([][]byte, c.Size())
		send[0] = b
		return c.Alltoallv(send)
	}
	degParts := toRoot(mpi.Int64sToBytes(degs))
	adjParts := toRoot(slices.Clone(mpi.Int32sAsBytes(d.Adj)))
	if c.Rank() != 0 {
		return nil, nil
	}
	g := &graph.Graph{N: int32(d.N), Xadj: make([]int64, 1, d.N+1)}
	for r := range degParts {
		for _, dg := range mpi.BytesToInt64s(degParts[r]) {
			g.Xadj = append(g.Xadj, g.Xadj[len(g.Xadj)-1]+dg)
		}
		g.Adj = append(g.Adj, mpi.BytesToInt32s(adjParts[r])...)
	}
	return g, graph.CheckShape(g)
}

// wellFormed checks g as a simple undirected graph: its arrays fit together
// and rebuilding it from its own edges gives it back, so every row is sorted,
// loop-free and mirrored.
func wellFormed(g *graph.Graph) error {
	if err := graph.CheckShape(g); err != nil {
		return err
	}
	ref, err := graph.FromEdges(g.N, g.Edges())
	if err != nil {
		return err
	}
	if !slices.Equal(ref.Xadj, g.Xadj) || !slices.Equal(ref.Adj, g.Adj) {
		return errors.New("graph differs from its rebuild from its own edges")
	}
	return nil
}

func TestBlockOwnerAndRangeConsistent(t *testing.T) {
	for _, n := range []int64{1, 7, 10, 64, 101} {
		for p := 1; p <= 5; p++ {
			covered := make([]bool, n)
			for r := 0; r < p; r++ {
				beg, end := BlockRange(r, n, p)
				for v := beg; v < end; v++ {
					if covered[v] {
						t.Fatalf("n=%d p=%d: vertex %d covered twice", n, p, v)
					}
					covered[v] = true
					if BlockOwner(v, n, p) != r {
						t.Fatalf("n=%d p=%d: owner(%d)=%d want %d", n, p, v, BlockOwner(v, n, p), r)
					}
				}
			}
			for v, ok := range covered {
				if !ok {
					t.Fatalf("n=%d p=%d: vertex %d uncovered", n, p, v)
				}
			}
		}
	}
}

func TestScatterGatherRoundtrip(t *testing.T) {
	g, err := rmat.G500.Generate(8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 5} {
		results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
			d, err := ScatterGraph(c, 0, pick(c.Rank() == 0, g))
			if err != nil {
				return nil, err
			}
			// Every rank's slice must be internally consistent.
			if d.NumLocal() < 0 || int64(len(d.Adj)) != d.Xadj[d.NumLocal()] {
				t.Errorf("rank %d: inconsistent slice", c.Rank())
			}
			return gather1D(c, d)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		got := results[0].(*graph.Graph)
		if got.N != g.N || len(got.Adj) != len(g.Adj) {
			t.Fatalf("p=%d: roundtrip shape mismatch", p)
		}
		for i := range g.Adj {
			if got.Adj[i] != g.Adj[i] {
				t.Fatalf("p=%d: adjacency differs at %d", p, i)
			}
		}
	}
}

func pick(cond bool, g *graph.Graph) *graph.Graph {
	if cond {
		return g
	}
	return nil
}

func TestGenerateRMAT1DConsistentAcrossWorldSizes(t *testing.T) {
	const scale, ef = 8, 8
	var ref *graph.Graph
	for _, p := range []int{1, 4, 9} {
		results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
			d, err := GenerateRMAT1D(c, rmat.G500, scale, ef, 5)
			if err != nil {
				return nil, err
			}
			return gather1D(c, d)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		g := results[0].(*graph.Graph)
		if err := wellFormed(g); err != nil {
			t.Fatalf("p=%d: gathered graph invalid: %v", p, err)
		}
		if ref == nil {
			ref = g
			continue
		}
		if g.N != ref.N || len(g.Adj) != len(ref.Adj) {
			t.Fatalf("p=%d: graph shape differs", p)
		}
		for i := range g.Adj {
			if g.Adj[i] != ref.Adj[i] {
				t.Fatalf("p=%d: adjacency differs at %d", p, i)
			}
		}
	}
}

func TestGenerateER1D(t *testing.T) {
	results, err := mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		d, err := GenerateER1D(c, 256, 1024, 9)
		if err != nil {
			return nil, err
		}
		return gather1D(c, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	g := results[0].(*graph.Graph)
	if err := wellFormed(g); err != nil {
		t.Fatal(err)
	}
	if g.N != 256 || g.NumEdges() == 0 {
		t.Fatalf("N=%d M=%d", g.N, g.NumEdges())
	}
}

func TestRMATInputMatchesLocalGenerate(t *testing.T) {
	// The Input plumbing must produce the same graph as the serial
	// generator followed by a scatter.
	want, err := rmat.G500.Generate(8, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	results, err := mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		d, err := RMATInput{Params: rmat.G500, Scale: 8, EdgeFactor: 8, Seed: 5}.Build(c)
		if err != nil {
			return nil, err
		}
		return gather1D(c, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].(*graph.Graph)
	if got.N != want.N || len(got.Adj) != len(want.Adj) {
		t.Fatalf("shape mismatch: N=%d nnz=%d vs N=%d nnz=%d", got.N, len(got.Adj), want.N, len(want.Adj))
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("adjacency differs at %d", i)
		}
	}
}

func TestScatterGraphErrors(t *testing.T) {
	_, err := mpi.Run(2, testCfg(), func(c *mpi.Comm) (any, error) {
		_, err := ScatterGraph(c, 0, nil) // root supplies no graph
		return nil, err
	})
	if err == nil {
		t.Fatal("expected error when root has no graph")
	}
}
