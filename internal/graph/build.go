package graph

import (
	"fmt"
	"slices"
)

// Edge is one undirected edge. Orientation carries no meaning; builders
// symmetrize.
type Edge struct {
	U, V int32
}

// FromEdges builds a simple undirected CSR graph from an arbitrary edge list:
// both directions are inserted, self loops dropped, and duplicate edges
// (including reverse duplicates) merged. Edges referencing vertices outside
// [0, n) are an error.
func FromEdges(n int32, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	// First pass: count directed entries (excluding self loops).
	counts := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		counts[e.U+1]++
		counts[e.V+1]++
	}
	xadj := make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		xadj[v+1] = xadj[v] + counts[v+1]
	}
	adj := make([]int32, xadj[n])
	next := make([]int64, n)
	copy(next, xadj[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	// Sort and dedup each list, then compact.
	out := &Graph{N: n, Xadj: make([]int64, n+1)}
	outAdj := adj[:0] // compact in place; reads stay ahead of writes
	w := int64(0)
	for v := int32(0); v < n; v++ {
		row := adj[xadj[v]:xadj[v+1]]
		slices.Sort(row)
		start := w
		var prev int32 = -1
		for _, u := range row {
			if u == prev {
				continue
			}
			prev = u
			outAdj = append(outAdj[:w], u)
			w++
		}
		_ = start
		out.Xadj[v+1] = w
	}
	out.Adj = append([]int32(nil), outAdj[:w]...)
	return out, nil
}

// Permute relabels the graph: vertex v becomes perm[v]. The result has
// sorted adjacency lists. perm must be a bijection on [0, N).
func (g *Graph) Permute(perm []int32) (*Graph, error) {
	if int32(len(perm)) != g.N {
		return nil, fmt.Errorf("graph: perm length %d, want %d", len(perm), g.N)
	}
	seen := make([]bool, g.N)
	for _, p := range perm {
		if p < 0 || p >= g.N || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a bijection")
		}
		seen[p] = true
	}
	xadj := make([]int64, g.N+1)
	for v := int32(0); v < g.N; v++ {
		xadj[perm[v]+1] = int64(g.Degree(v))
	}
	for v := int32(0); v < g.N; v++ {
		xadj[v+1] += xadj[v]
	}
	adj := make([]int32, len(g.Adj))
	for v := int32(0); v < g.N; v++ {
		nv := perm[v]
		row := adj[xadj[nv] : xadj[nv]+int64(g.Degree(v))]
		for i, u := range g.Neighbors(v) {
			row[i] = perm[u]
		}
		slices.Sort(row)
	}
	return &Graph{N: g.N, Xadj: xadj, Adj: adj}, nil
}

// DegreeOrderPerm returns the permutation that relabels vertices in
// non-decreasing degree order (counting sort; ties broken by original id, so
// the ordering is deterministic). perm[v] is v's new id.
func (g *Graph) DegreeOrderPerm() []int32 {
	dmax := g.MaxDegree()
	hist := make([]int64, dmax+2)
	for v := int32(0); v < g.N; v++ {
		hist[g.Degree(v)+1]++
	}
	for d := int32(0); d <= dmax; d++ {
		hist[d+1] += hist[d]
	}
	perm := make([]int32, g.N)
	for v := int32(0); v < g.N; v++ {
		d := g.Degree(v)
		perm[v] = int32(hist[d])
		hist[d]++
	}
	return perm
}

// DegreeOrder relabels the graph in non-decreasing degree order and returns
// the relabeled graph along with the permutation used.
func (g *Graph) DegreeOrder() (*Graph, []int32) {
	perm := g.DegreeOrderPerm()
	ng, err := g.Permute(perm)
	if err != nil {
		panic("graph: internal: degree perm not a bijection: " + err.Error())
	}
	return ng, perm
}
