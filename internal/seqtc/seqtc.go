// Package seqtc implements the sequential reference triangle counter: the
// map-based ⟨j,i,k⟩ algorithm from Section 3 of the paper (CountMapJIK, and
// Count, which degree-orders first), plus the per-vertex counts and edge
// supports the public API reports. It is the correctness oracle for the
// distributed algorithm.
package seqtc

import (
	"tc2d/internal/graph"
	"tc2d/internal/hashset"
)

// CountMapJIK counts with the map-based approach under ⟨j,i,k⟩, the paper's
// preferred scheme: hash N⁺(j) once per j (with degree ordering this is the
// longer list) and probe it with N⁺(i) for every i ∈ N⁻(j) = {u ∈ Adj(j) :
// u < j}. Hits satisfy k > j by construction of the hashed set.
func CountMapJIK(g *graph.Graph) int64 {
	set := hashset.New(int(g.MaxDegree()) * 2)
	var total int64
	for j := int32(0); j < g.N; j++ {
		below := g.NeighborsBelow(j)
		if len(below) == 0 {
			continue
		}
		above := g.NeighborsAbove(j)
		if len(above) == 0 {
			continue
		}
		set.Reset()
		for _, k := range above {
			set.Insert(k)
		}
		for _, i := range below {
			for _, k := range g.NeighborsAbove(i) {
				if set.Contains(k) {
					total++
				}
			}
		}
	}
	return total
}

// Count returns the exact triangle count of g using the fastest reference
// method (map-based ⟨j,i,k⟩ after degree ordering, per the paper's §3).
func Count(g *graph.Graph) int64 {
	ordered, _ := g.DegreeOrder()
	return CountMapJIK(ordered)
}

// PerVertexCounts returns the number of triangles through each vertex (each
// triangle contributes to all three of its vertices).
func PerVertexCounts(g *graph.Graph) []int64 {
	counts := make([]int64, g.N)
	for i := int32(0); i < g.N; i++ {
		ni := g.NeighborsAbove(i)
		for a, j := range ni {
			nj := g.NeighborsAbove(j)
			x, y := a+1, 0
			for x < len(ni) && y < len(nj) {
				switch {
				case ni[x] < nj[y]:
					x++
				case ni[x] > nj[y]:
					y++
				default:
					counts[i]++
					counts[j]++
					counts[ni[x]]++
					x++
					y++
				}
			}
		}
	}
	return counts
}

// EdgeSupport returns the full triangle support of every undirected edge
// (i<j): the number of triangles containing that edge with any third vertex
// (not just k > j). This is the quantity k-truss uses.
func EdgeSupport(g *graph.Graph) map[graph.Edge]int32 {
	sup := make(map[graph.Edge]int32, g.NumEdges())
	for i := int32(0); i < g.N; i++ {
		ni := g.NeighborsAbove(i)
		for a := 0; a < len(ni); a++ {
			j := ni[a]
			nj := g.NeighborsAbove(j)
			// Triangles (i, j, k) with k > j: bump all three edges.
			x, y := a+1, 0
			for x < len(ni) && y < len(nj) {
				switch {
				case ni[x] < nj[y]:
					x++
				case ni[x] > nj[y]:
					y++
				default:
					k := ni[x]
					sup[graph.Edge{U: i, V: j}]++
					sup[graph.Edge{U: i, V: k}]++
					sup[graph.Edge{U: j, V: k}]++
					x++
					y++
				}
			}
		}
	}
	return sup
}
