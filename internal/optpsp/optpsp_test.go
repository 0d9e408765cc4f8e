package optpsp

import (
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

func testCfg() mpi.Config {
	return mpi.Config{ComputeSlots: 4}
}

func countVia(t *testing.T, g *graph.Graph, p int, opt Options) *Result {
	t.Helper()
	results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
		var full *graph.Graph
		if c.Rank() == 0 {
			full = g
		}
		in, err := dgraph.ScatterGraph(c, 0, full)
		if err != nil {
			return nil, err
		}
		return Count(c, in, opt)
	})
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	return results[0].(*Result)
}

func TestK5(t *testing.T) {
	var edges []graph.Edge
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g, _ := graph.FromEdges(5, edges)
	for _, p := range []int{1, 2, 5} {
		res := countVia(t, g, p, Options{})
		if res.Triangles != 10 {
			t.Errorf("p=%d: %d", p, res.Triangles)
		}
	}
}

func TestMatchesSequentialOnRMAT(t *testing.T) {
	g, err := rmat.G500.Generate(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := seqtc.Count(g)
	for _, p := range []int{1, 4, 9} {
		res := countVia(t, g, p, Options{})
		if res.Triangles != want {
			t.Errorf("p=%d: %d want %d", p, res.Triangles, want)
		}
	}
}

func TestSmallBlocksMeanMoreRounds(t *testing.T) {
	g, err := rmat.G500.Generate(9, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := seqtc.Count(g)
	few := countVia(t, g, 4, Options{BlockSize: 1 << 20})
	many := countVia(t, g, 4, Options{BlockSize: 32})
	if few.Triangles != want || many.Triangles != want {
		t.Fatalf("counts: few=%d many=%d want %d", few.Triangles, many.Triangles, want)
	}
	if many.Rounds <= few.Rounds {
		t.Errorf("rounds: blocksize32=%d vs big=%d", many.Rounds, few.Rounds)
	}
}

func TestPhaseTimes(t *testing.T) {
	g, err := rmat.G500.Generate(9, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	results, err := mpi.Run(4, mpi.Config{ComputeSlots: 2}, func(c *mpi.Comm) (any, error) {
		var full *graph.Graph
		if c.Rank() == 0 {
			full = g
		}
		in, err := dgraph.ScatterGraph(c, 0, full)
		if err != nil {
			return nil, err
		}
		return Count(c, in, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].(*Result)
	if res.SetupTime <= 0 || res.CountTime <= 0 {
		t.Errorf("times: setup=%v count=%v", res.SetupTime, res.CountTime)
	}
}
