package aop

import (
	"testing"
	"testing/quick"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

func testCfg() mpi.Config {
	return mpi.Config{ComputeSlots: 4}
}

type variant func(*mpi.Comm, *dgraph.Dist1D) (*Result, error)

func countAll(t *testing.T, g *graph.Graph, p int, fn variant) []*Result {
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
		return fn(c, in)
	})
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	out := make([]*Result, p)
	for i, r := range results {
		out[i] = r.(*Result)
	}
	return out
}

func countVia(t *testing.T, g *graph.Graph, p int, fn variant) *Result {
	t.Helper()
	return countAll(t, g, p, fn)[0]
}

func TestAOPKnownGraphs(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
	})
	for _, p := range []int{1, 2, 4} {
		res := countVia(t, g, p, CountAOP)
		if res.Triangles != 4 {
			t.Errorf("AOP K4 p=%d: %d", p, res.Triangles)
		}
		res = countVia(t, g, p, CountSurrogate)
		if res.Triangles != 4 {
			t.Errorf("Surrogate K4 p=%d: %d", p, res.Triangles)
		}
	}
}

func TestBothMatchSequentialOnRMAT(t *testing.T) {
	g, err := rmat.G500.Generate(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := seqtc.Count(g)
	for _, p := range []int{1, 3, 8} {
		if res := countVia(t, g, p, CountAOP); res.Triangles != want {
			t.Errorf("AOP p=%d: %d want %d", p, res.Triangles, want)
		}
		if res := countVia(t, g, p, CountSurrogate); res.Triangles != want {
			t.Errorf("Surrogate p=%d: %d want %d", p, res.Triangles, want)
		}
	}
}

func TestSurrogatePushesLessWithOneRank(t *testing.T) {
	g, err := rmat.G500.Generate(9, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	res1 := countVia(t, g, 1, CountSurrogate)
	if res1.PushedInts != 0 {
		t.Errorf("single rank pushed %d ints", res1.PushedInts)
	}
	var pushed int64
	for _, r := range countAll(t, g, 4, CountSurrogate) {
		pushed += r.PushedInts
	}
	if pushed == 0 {
		t.Errorf("4 ranks pushed nothing")
	}
}

func TestAOPGhostsOnlyWithMultipleRanks(t *testing.T) {
	g, err := rmat.G500.Generate(9, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res := countVia(t, g, 1, CountAOP); res.GhostLists != 0 {
		t.Errorf("single rank has %d ghosts", res.GhostLists)
	}
	var ghosts int64
	for _, r := range countAll(t, g, 4, CountAOP) {
		ghosts += r.GhostLists
	}
	if ghosts == 0 {
		t.Errorf("4 ranks fetched no ghosts")
	}
}

func TestPropertyVariantsAgree(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		g, err := rmat.ErdosRenyi(128, int64(mRaw)%1500+100, seed)
		if err != nil {
			return false
		}
		want := seqtc.Count(g)
		a := countVia(t, g, 4, CountAOP)
		s := countVia(t, g, 4, CountSurrogate)
		return a.Triangles == want && s.Triangles == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSorted(t *testing.T) {
	if got := intersectSorted([]int32{1, 3, 5}, []int32{3, 5, 7}); got != 2 {
		t.Errorf("got %d", got)
	}
	if got := intersectSorted(nil, []int32{1}); got != 0 {
		t.Errorf("got %d", got)
	}
}
