package havoq

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
		in, err := dgraph.ScatterGraph(c, 0, pick(c.Rank() == 0, g))
		if err != nil {
			return nil, err
		}
		return Count(c, in, opt)
	})
	if err != nil {
		t.Fatalf("havoq p=%d: %v", p, err)
	}
	return results[0].(*Result)
}

func pick(cond bool, g *graph.Graph) *graph.Graph {
	if cond {
		return g
	}
	return nil
}

func TestCountTriangle(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	for _, p := range []int{1, 2, 3} {
		res := countVia(t, g, p, Options{})
		if res.Triangles != 1 {
			t.Errorf("p=%d: %d triangles", p, res.Triangles)
		}
	}
}

func TestTwoCoreRemovesTrees(t *testing.T) {
	// A triangle with a pendant path: the path must be removed by the
	// 2-core pass and the count still be 1.
	g, _ := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, // triangle
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, // pendant path
	})
	res := countVia(t, g, 2, Options{})
	if res.Triangles != 1 {
		t.Errorf("triangles=%d", res.Triangles)
	}
	if res.Removed != 3 {
		t.Errorf("removed=%d, want 3 (path vertices)", res.Removed)
	}
}

func TestMatchesSequentialOnRMAT(t *testing.T) {
	g, err := rmat.G500.Generate(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := seqtc.Count(g)
	for _, p := range []int{1, 4, 6, 9} {
		res := countVia(t, g, p, Options{})
		if res.Triangles != want {
			t.Errorf("p=%d: %d want %d", p, res.Triangles, want)
		}
		if res.Wedges < want {
			t.Errorf("p=%d: wedges %d < triangles %d", p, res.Wedges, want)
		}
	}
}

func TestSmallWedgeBatchesSameAnswer(t *testing.T) {
	// Forcing many query rounds must not change the count.
	g, err := rmat.Twitterish.Generate(9, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := seqtc.Count(g)
	res := countVia(t, g, 4, Options{WedgeBatch: 64})
	if res.Triangles != want {
		t.Errorf("batched: %d want %d", res.Triangles, want)
	}
	if res.QueryRounds < 2 {
		t.Errorf("expected multiple query rounds, got %d", res.QueryRounds)
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	g, err := rmat.G500.Generate(9, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	results, err := mpi.Run(4, mpi.Config{ComputeSlots: 2}, func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterGraph(c, 0, pick(c.Rank() == 0, g))
		if err != nil {
			return nil, err
		}
		return Count(c, in, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].(*Result)
	if res.TwoCoreTime <= 0 || res.WedgeTime <= 0 {
		t.Errorf("phase times: 2core=%v wedge=%v", res.TwoCoreTime, res.WedgeTime)
	}
	if res.TotalTime < res.TwoCoreTime+res.WedgeTime-1e-9 {
		t.Errorf("total < sum of phases")
	}
}

func TestTwoCoreMatchesSequentialKCore(t *testing.T) {
	// The distributed 2-core pass must remove exactly the vertices the
	// sequential k-core algorithm removes.
	g, err := rmat.G500.Generate(10, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	_, wantRemoved := kCore(g, 2)
	for _, p := range []int{1, 4, 7} {
		res := countVia(t, g, p, Options{})
		if res.Removed != wantRemoved {
			t.Errorf("p=%d: removed %d, sequential k-core removed %d", p, res.Removed, wantRemoved)
		}
	}
}

func TestEmptyAfterTwoCore(t *testing.T) {
	// A forest has an empty 2-core and zero triangles.
	g, _ := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6}, {U: 6, V: 7},
	})
	res := countVia(t, g, 2, Options{})
	if res.Triangles != 0 {
		t.Errorf("triangles=%d", res.Triangles)
	}
	if res.Removed != 8 {
		t.Errorf("removed=%d want 8", res.Removed)
	}
}
