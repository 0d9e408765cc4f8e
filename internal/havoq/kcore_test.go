package havoq

import (
	"testing"
	"testing/quick"

	"tc2d/internal/graph"
	"tc2d/internal/rmat"
)

// kCore returns the k-core of g — the maximal subgraph in which every vertex
// has degree >= k — as a keep-mask over vertices, along with the number of
// removed vertices: the sequential oracle of Count's 2-core pass.
func kCore(g *graph.Graph, k int32) (keep []bool, removed int64) {
	keep = make([]bool, g.N)
	deg := make([]int32, g.N)
	queue := make([]int32, 0, g.N)
	for v := int32(0); v < g.N; v++ {
		keep[v] = true
		deg[v] = g.Degree(v)
		if deg[v] < k {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !keep[v] {
			continue
		}
		keep[v] = false
		removed++
		for _, u := range g.Neighbors(v) {
			if !keep[u] {
				continue
			}
			deg[u]--
			if deg[u] < k {
				queue = append(queue, u)
			}
		}
	}
	return keep, removed
}

func TestKCoreTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 with a tail 2-3-4: the 2-core is exactly the triangle.
	g, _ := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	keep, removed := kCore(g, 2)
	if removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	for v := int32(0); v < 3; v++ {
		if !keep[v] {
			t.Errorf("triangle vertex %d removed", v)
		}
	}
	for v := int32(3); v < 5; v++ {
		if keep[v] {
			t.Errorf("tail vertex %d kept", v)
		}
	}
}

func TestKCoreForestIsEmpty(t *testing.T) {
	g, _ := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	_, removed := kCore(g, 2)
	if removed != 6 {
		t.Fatalf("removed %d, want all 6", removed)
	}
}

func TestKCoreCompleteGraphKeepsAll(t *testing.T) {
	var edges []graph.Edge
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g, _ := graph.FromEdges(6, edges)
	keep, removed := kCore(g, 5)
	if removed != 0 {
		t.Fatalf("removed %d from K6 at k=5", removed)
	}
	for _, k := range keep {
		if !k {
			t.Fatal("vertex dropped from K6")
		}
	}
	// k=6 kills everything (degree 5 < 6).
	if _, removed := kCore(g, 6); removed != 6 {
		t.Fatalf("k=6: removed %d", removed)
	}
}

func TestKCorePropertyMinDegree(t *testing.T) {
	// Property: within the k-core, every kept vertex has >= k kept
	// neighbors.
	f := func(seed uint64, kRaw uint8) bool {
		g, err := rmat.ErdosRenyi(60, 250, seed)
		if err != nil {
			return false
		}
		k := int32(kRaw%5) + 1
		keep, _ := kCore(g, k)
		for v := int32(0); v < g.N; v++ {
			if !keep[v] {
				continue
			}
			cnt := int32(0)
			for _, u := range g.Neighbors(v) {
				if keep[u] {
					cnt++
				}
			}
			if cnt < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
