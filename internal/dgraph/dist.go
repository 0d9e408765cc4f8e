// Package dgraph provides the distributed-graph input layer shared by the
// core 2D algorithm and the 1D baseline algorithms: the Dist1D block
// distribution, scatter/gather between full in-memory graphs and ranks,
// parallel synthetic generators, and degree-based relabeling utilities.
package dgraph

import (
	"fmt"
	"slices"

	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// Dist1D is the algorithm's input: a 1D block distribution of an undirected
// graph, as assumed in §5.3 ("the graph is initially stored using a 1D
// distribution, in which each processor has n/p vertices and its associated
// adjacency lists"). Rank r holds the contiguous vertex range [VBeg, VEnd)
// with full (both-direction) adjacency lists in global ids.
type Dist1D struct {
	N    int64   // global number of vertices
	VBeg int32   // first owned vertex (global id)
	VEnd int32   // one past the last owned vertex
	Xadj []int64 // local row pointers, length VEnd-VBeg+1
	// Adj holds the neighbor lists in global ids, sorted per vertex except
	// in a block AssembleRows built (arrival order). A scattered block's
	// Adj is the caller's graph, lent read-only (see ScatterGraph).
	Adj []int32
}

// NumLocal returns the number of locally owned vertices.
func (d *Dist1D) NumLocal() int32 { return d.VEnd - d.VBeg }

// Neighbors returns the adjacency list of global vertex v, which must be
// locally owned.
func (d *Dist1D) Neighbors(v int32) []int32 {
	lv := v - d.VBeg
	return d.Adj[d.Xadj[lv]:d.Xadj[lv+1]]
}

// BlockOwner computes the owner rank of vertex v under the block
// distribution of n vertices over p ranks (first n%p ranks get one extra).
func BlockOwner(v int32, n int64, p int) int {
	base := n / int64(p)
	rem := n % int64(p)
	cut := rem * (base + 1)
	if int64(v) < cut {
		return int(int64(v) / (base + 1))
	}
	return int(rem + (int64(v)-cut)/base)
}

// BlockRange returns the [beg, end) vertex range of rank r under the block
// distribution.
func BlockRange(r int, n int64, p int) (int32, int32) {
	base := n / int64(p)
	rem := int64(r)
	if rem > n%int64(p) {
		rem = n % int64(p)
	}
	beg := int64(r)*base + rem
	end := beg + base
	if int64(r) < n%int64(p) {
		end++
	}
	return int32(beg), int32(end)
}

// AssembleRows builds the block [beg, end) of an n-vertex 1D distribution
// from received row chunks — the receiving half of every row-routing
// all-to-all. Each part is a sequence of chunks [id, count, count values];
// a vertex may arrive as one chunk or as several (from any sources), which
// are laid out in arrival order, unsorted. Count → prefix-sum → fill: two
// passes over the parts, each output array allocated once at its final size.
func AssembleRows(n int64, beg, end int32, got [][]int32) *Dist1D {
	nloc := int(end - beg)
	xadj := make([]int64, nloc+1)
	for _, part := range got {
		for i := 0; i < len(part); i += 2 + int(part[i+1]) {
			xadj[part[i]-beg+1] += int64(part[i+1])
		}
	}
	for v := 0; v < nloc; v++ {
		xadj[v+1] += xadj[v]
	}
	adj := make([]int32, xadj[nloc])
	next := make([]int64, nloc)
	copy(next, xadj)
	for _, part := range got {
		for i := 0; i < len(part); {
			lv, cnt := part[i]-beg, int(part[i+1])
			next[lv] += int64(copy(adj[next[lv]:], part[i+2:i+2+cnt]))
			i += 2 + cnt
		}
	}
	return &Dist1D{N: n, VBeg: beg, VEnd: end, Xadj: xadj, Adj: adj}
}

// ScatterGraph distributes a full graph held at root into 1D blocks. Other
// ranks pass g == nil.
//
// Only the rebased row pointers are new: every rank's Adj is a view of g's
// own rows, lent read-only — on the in-process transport the receivers read
// the root's array itself, and a socket transport copies it onto the wire —
// so g must not change while a block lives, and no consumer of a scattered
// block may write its Adj (TestCountLeavesGraphUntouched).
func ScatterGraph(c *mpi.Comm, root int, g *graph.Graph) (*Dist1D, error) {
	p := c.Size()
	// Broadcast the vertex count first, even on the error path: if the
	// root bailed out before the broadcast, the other ranks would block in
	// Bcast forever. n == 0 signals "no graph" to every rank consistently.
	var n int64
	if c.Rank() == root && g != nil {
		n = int64(g.N)
	}
	n = mpi.BytesToInt64s(c.Bcast(root, mpi.Int64sToBytes([]int64{n})))[0]
	if n == 0 {
		if c.Rank() == root && g == nil {
			return nil, fmt.Errorf("dgraph: root must supply a graph")
		}
		return nil, fmt.Errorf("dgraph: empty graph")
	}
	beg, end := BlockRange(c.Rank(), n, p)
	out := &Dist1D{N: n, VBeg: beg, VEnd: end}
	if c.Rank() == root {
		for r := 0; r < p; r++ {
			rb, re := BlockRange(r, n, p)
			lo, hi := g.Xadj[rb], g.Xadj[re]
			xadj := make([]int64, re-rb+1)
			for v := rb; v < re; v++ {
				xadj[v-rb+1] = g.Xadj[v+1] - lo
			}
			// Capped at the block's end, so not even an append reaches
			// the next block's rows.
			adj := g.Adj[lo:hi:hi]
			if r == root {
				out.Xadj, out.Adj = xadj, adj
				continue
			}
			c.SendOwn(r, 11, mpi.Int64sAsBytes(xadj))
			c.SendOwn(r, 12, mpi.Int32sAsBytes(adj))
		}
	} else {
		out.Xadj = c.RecvInt64s(root, 11)
		out.Adj = c.RecvInt32s(root, 12)
	}
	return out, nil
}

// GenerateRMAT1D generates an RMAT graph of 2^scale vertices in parallel:
// each rank generates its slice of the raw edge list, then a personalized
// all-to-all routes each directed endpoint to the owner of its source
// vertex, where self loops and duplicates are removed. The result is the
// same simple undirected graph on every world size.
func GenerateRMAT1D(c *mpi.Comm, params rmat.Params, scale, edgeFactor int, seed uint64) (*Dist1D, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("core: rmat scale %d out of range", scale)
	}
	n := int64(1) << uint(scale)
	p := c.Size()
	mRaw := int64(edgeFactor) * n
	lo := mRaw * int64(c.Rank()) / int64(p)
	hi := mRaw * int64(c.Rank()+1) / int64(p)
	return assemble1D(c, n, params.EdgesSlice(scale, seed, lo, hi))
}

// GenerateER1D generates an Erdős–Rényi-style graph (m uniform edge samples
// over n vertices) in parallel, analogous to GenerateRMAT1D.
func GenerateER1D(c *mpi.Comm, n int64, m int64, seed uint64) (*Dist1D, error) {
	if n <= 0 || n > int64(1)<<31-1 {
		return nil, fmt.Errorf("core: vertex count %d out of int32 range", n)
	}
	p := c.Size()
	lo := m * int64(c.Rank()) / int64(p)
	hi := m * int64(c.Rank()+1) / int64(p)
	return assemble1D(c, n, rmat.ERSlice(n, seed, lo, hi))
}

// assemble1D routes raw (possibly duplicated) undirected edges to the block
// owners of both endpoints and builds the deduplicated local CSR.
func assemble1D(c *mpi.Comm, n int64, edges []graph.Edge) (*Dist1D, error) {
	p := c.Size()
	sendbuf := make([][]int32, p)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		du := BlockOwner(e.U, n, p)
		dv := BlockOwner(e.V, n, p)
		sendbuf[du] = append(sendbuf[du], e.U, e.V)
		sendbuf[dv] = append(sendbuf[dv], e.V, e.U)
	}
	got := c.AlltoallvInt32(sendbuf)

	beg, end := BlockRange(c.Rank(), n, p)
	out := &Dist1D{N: n, VBeg: beg, VEnd: end}
	nloc := int(end - beg)
	counts := make([]int64, nloc+1)
	for _, part := range got {
		for i := 0; i < len(part); i += 2 {
			counts[part[i]-beg+1]++
		}
	}
	for v := 0; v < nloc; v++ {
		counts[v+1] += counts[v]
	}
	adj := make([]int32, counts[nloc])
	next := make([]int64, nloc)
	copy(next, counts[:nloc])
	for _, part := range got {
		for i := 0; i < len(part); i += 2 {
			lv := part[i] - beg
			adj[next[lv]] = part[i+1]
			next[lv]++
		}
	}
	// Sort and dedup each list, compacting in place.
	xadj := make([]int64, nloc+1)
	w := int64(0)
	for v := 0; v < nloc; v++ {
		row := adj[counts[v]:counts[v+1]]
		slices.Sort(row)
		var prev int32 = -1
		for _, u := range row {
			if u == prev {
				continue
			}
			prev = u
			adj[w] = u
			w++
		}
		xadj[v+1] = w
	}
	out.Xadj = xadj
	out.Adj = adj[:w:w]
	return out, nil
}
