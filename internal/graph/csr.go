// Package graph provides the in-memory graph substrate: a CSR (compressed
// sparse row) representation of simple undirected graphs, builders from edge
// lists, degree-based reordering, upper/lower triangular extraction, and
// edge-list I/O.
//
// Vertices are int32 ids in [0, N). Graphs are stored with both directions of
// every undirected edge present (a symmetric adjacency matrix), adjacency
// lists sorted ascending, no self-loops and no duplicate edges.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph in CSR form. Adjacency lists are sorted
// ascending and contain each undirected edge twice (u in Adj(v) and v in
// Adj(u)).
type Graph struct {
	N    int32   // number of vertices
	Xadj []int64 // length N+1; row pointers into Adj
	Adj  []int32 // concatenated adjacency lists, len = 2 * undirected edges
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int32 { return g.N }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int32 { return int32(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors returns v's adjacency list (sorted ascending). The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.Adj[g.Xadj[v]:g.Xadj[v+1]] }

// NeighborsAbove returns the suffix of v's adjacency list with ids > v
// (the non-zeros of row v of the upper triangle U).
func (g *Graph) NeighborsAbove(v int32) []int32 {
	row := g.Neighbors(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] > v })
	return row[i:]
}

// NeighborsBelow returns the prefix of v's adjacency list with ids < v
// (the non-zeros of row v of the lower triangle L).
func (g *Graph) NeighborsBelow(v int32) []int32 {
	row := g.Neighbors(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return row[:i]
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int32 {
	var dmax int32
	for v := int32(0); v < g.N; v++ {
		if d := g.Degree(v); d > dmax {
			dmax = d
		}
	}
	return dmax
}

// CheckShape checks in one linear pass that g's CSR arrays fit together:
// N ≥ 0, N+1 row pointers from 0 to len(Adj) that never decrease, and every
// neighbor in [0, N). It reads no row's order, so a graph that passes may
// still have unsorted rows, self loops or one-way edges.
func CheckShape(g *Graph) error {
	if g.N < 0 {
		return fmt.Errorf("graph: %d vertices", g.N)
	}
	if len(g.Xadj) != int(g.N)+1 {
		return fmt.Errorf("graph: xadj length %d, want %d", len(g.Xadj), int64(g.N)+1)
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: xadj[0] = %d, want 0", g.Xadj[0])
	}
	if g.Xadj[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: xadj[N] = %d, want %d", g.Xadj[g.N], len(g.Adj))
	}
	for v := int32(0); v < g.N; v++ {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("graph: xadj not monotone at %d", v)
		}
	}
	for _, u := range g.Adj {
		if u < 0 || u >= g.N {
			return fmt.Errorf("graph: neighbor %d outside [0, %d)", u, g.N)
		}
	}
	return nil
}

// Edges returns the undirected edges as (u < v) pairs in row order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for v := int32(0); v < g.N; v++ {
		for _, u := range g.NeighborsAbove(v) {
			edges = append(edges, Edge{U: v, V: u})
		}
	}
	return edges
}
