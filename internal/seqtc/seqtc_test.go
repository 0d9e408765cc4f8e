package seqtc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tc2d/internal/graph"
	"tc2d/internal/hashset"
	"tc2d/internal/rmat"
)

// CountList and CountMapIJK are the paper's other §3 counters, kept here as
// oracles the production counter must agree with.

// CountList counts triangles with sorted-list merge intersections under the
// ⟨i,j,k⟩ rule: for every edge (i,j) with i<j, |N⁺(i) ∩ N⁺(j)| where
// N⁺(v) = {w ∈ Adj(v) : w > v}.
func CountList(g *graph.Graph) int64 {
	var total int64
	for i := int32(0); i < g.N; i++ {
		ni := g.NeighborsAbove(i)
		for _, j := range ni {
			total += intersectSorted(ni, g.NeighborsAbove(j))
		}
	}
	return total
}

// intersectSorted returns |a ∩ b| for ascending-sorted slices.
func intersectSorted(a, b []int32) int64 {
	var n int64
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			n++
			x++
			y++
		}
	}
	return n
}

// CountMapIJK counts with the map-based approach under ⟨i,j,k⟩: hash N⁺(i)
// once per i and probe it with N⁺(j) for every j ∈ N⁺(i). Probes that hit
// close a triangle (every hit k satisfies k > j > i automatically because it
// lies in both suffix lists).
func CountMapIJK(g *graph.Graph) int64 {
	set := hashset.New(int(g.MaxDegree()) * 2)
	var total int64
	for i := int32(0); i < g.N; i++ {
		ni := g.NeighborsAbove(i)
		if len(ni) < 2 {
			continue
		}
		set.Reset()
		for _, k := range ni {
			set.Insert(k)
		}
		for _, j := range ni {
			for _, k := range g.NeighborsAbove(j) {
				if set.Contains(k) {
					total++
				}
			}
		}
	}
	return total
}

func complete(t *testing.T, n int32) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func brute(g *graph.Graph) int64 {
	var c int64
	for i := int32(0); i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if !slices.Contains(g.Neighbors(i), j) {
				continue
			}
			for k := j + 1; k < g.N; k++ {
				if slices.Contains(g.Neighbors(i), k) && slices.Contains(g.Neighbors(j), k) {
					c++
				}
			}
		}
	}
	return c
}

func TestKnownCounts(t *testing.T) {
	cases := []struct {
		name string
		g    func() *graph.Graph
		want int64
	}{
		{"K3", func() *graph.Graph { return complete(t, 3) }, 1},
		{"K4", func() *graph.Graph { return complete(t, 4) }, 4},
		{"K5", func() *graph.Graph { return complete(t, 5) }, 10},
		{"K10", func() *graph.Graph { return complete(t, 10) }, 120},
		{"path", func() *graph.Graph {
			g, _ := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
			return g
		}, 0},
		{"two-triangles-shared-edge", func() *graph.Graph {
			g, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
			return g
		}, 2},
	}
	for _, c := range cases {
		g := c.g()
		for name, fn := range map[string]func(*graph.Graph) int64{
			"list":   CountList,
			"mapIJK": CountMapIJK,
			"mapJIK": CountMapJIK,
		} {
			if got := fn(g); got != c.want {
				t.Errorf("%s/%s: %d want %d", c.name, name, got, c.want)
			}
		}
		if got := Count(g); got != c.want {
			t.Errorf("%s/Count: %d want %d", c.name, got, c.want)
		}
	}
}

func TestAllMethodsAgreeOnRMAT(t *testing.T) {
	g, err := rmat.G500.Generate(10, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	want := CountList(g)
	if want == 0 {
		t.Fatal("rmat graph unexpectedly triangle-free")
	}
	if got := CountMapIJK(g); got != want {
		t.Errorf("mapIJK %d want %d", got, want)
	}
	if got := CountMapJIK(g); got != want {
		t.Errorf("mapJIK %d want %d", got, want)
	}
	if got := Count(g); got != want {
		t.Errorf("Count %d want %d", got, want)
	}
}

func TestPropertyAgainstBruteForce(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int32(nRaw)%40 + 4
		m := int(mRaw) % 300
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(r.Intn(int(n))), V: int32(r.Intn(int(n)))}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		want := brute(g)
		return CountList(g) == want && CountMapIJK(g) == want &&
			CountMapJIK(g) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int64
	}{
		{nil, nil, 0},
		{[]int32{1, 2, 3}, nil, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2},
		{[]int32{1, 5, 9}, []int32{2, 6, 10}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
	}
	for _, c := range cases {
		if got := intersectSorted(c.a, c.b); got != c.want {
			t.Errorf("intersect(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEdgeSupportTriangleSum(t *testing.T) {
	// Each triangle contributes 3 to the total support.
	g := complete(t, 6) // C(6,3)=20 triangles, C(6,2)=15 edges
	sup := EdgeSupport(g)
	if len(sup) != 15 {
		t.Fatalf("%d edges with support", len(sup))
	}
	var total int64
	for _, s := range sup {
		total += int64(s)
	}
	if total != 3*20 {
		t.Errorf("total support %d want 60", total)
	}
	// In K6 every edge closes with the 4 remaining vertices.
	for e, s := range sup {
		if s != 4 {
			t.Errorf("edge %v support %d want 4", e, s)
		}
	}
}
