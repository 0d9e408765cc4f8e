package graph

import "fmt"

// Edge is one undirected edge. Orientation carries no meaning; builders
// symmetrize.
type Edge struct {
	U, V int32
}

// FromEdges builds a simple undirected CSR graph from an arbitrary edge list:
// both directions are inserted, self loops dropped, and duplicate edges
// (including reverse duplicates) merged. Edges referencing vertices outside
// [0, n) are an error.
//
// It sorts without comparing: every directed entry s → t is bucketed by its
// target t, holding s, and each bucket drops its repeated sources. The
// deduplicated entries are symmetric, so bucket t holds exactly t's
// neighbours and its size is t's final degree. Sweeping the buckets in
// ascending t and appending t to row s then fills an exactly sized Adj whose
// rows come out ascending.
func FromEdges(n int32, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	// Bucket the directed entries (self loops excluded) by target.
	xadj := make([]int64, n+1)
	for _, e := range edges {
		if e.U != e.V {
			xadj[e.U+1]++
			xadj[e.V+1]++
		}
	}
	for v := int32(0); v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	src := make([]int32, xadj[n])
	next := make([]int64, n)
	copy(next, xadj[:n])
	for _, e := range edges {
		if e.U != e.V {
			src[next[e.V]] = e.U
			next[e.V]++
			src[next[e.U]] = e.V
			next[e.U]++
		}
	}
	// Drop each bucket's repeated sources in place, compacting the buckets
	// leftward; seen[s] == t+1 marks s as already kept in bucket t. xadj
	// becomes the final row pointers.
	seen := make([]int32, n)
	w := int64(0)
	for t := int32(0); t < n; t++ {
		lo, hi := xadj[t], xadj[t+1]
		xadj[t] = w
		for _, s := range src[lo:hi] {
			if seen[s] != t+1 {
				seen[s] = t + 1
				src[w] = s
				w++
			}
		}
	}
	xadj[n] = w
	adj := make([]int32, w)
	copy(next, xadj[:n])
	for t := int32(0); t < n; t++ {
		for _, s := range src[xadj[t]:xadj[t+1]] {
			adj[next[s]] = t
			next[s]++
		}
	}
	return &Graph{N: n, Xadj: xadj, Adj: adj}, nil
}

// Permute relabels the graph: vertex v becomes perm[v]. The result has
// sorted adjacency lists. perm must be a bijection on [0, N).
//
// Like FromEdges it sorts without comparing: the adjacency is symmetric, so
// sweeping the new ids t in ascending order and appending t to the new row
// of every neighbour of t's old vertex fills each row in ascending order.
func (g *Graph) Permute(perm []int32) (*Graph, error) {
	if int32(len(perm)) != g.N {
		return nil, fmt.Errorf("graph: perm length %d, want %d", len(perm), g.N)
	}
	inv := make([]int32, g.N)
	for i := range inv {
		inv[i] = -1
	}
	for v, p := range perm {
		if p < 0 || p >= g.N || inv[p] >= 0 {
			return nil, fmt.Errorf("graph: perm is not a bijection")
		}
		inv[p] = int32(v)
	}
	xadj := make([]int64, g.N+1)
	for t, v := range inv {
		xadj[t+1] = xadj[t] + int64(g.Degree(v))
	}
	next := make([]int64, g.N)
	copy(next, xadj[:g.N])
	adj := make([]int32, len(g.Adj))
	for t, v := range inv {
		for _, u := range g.Neighbors(v) {
			nu := perm[u]
			adj[next[nu]] = int32(t)
			next[nu]++
		}
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
