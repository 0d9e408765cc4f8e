// Package aop re-implements the two 1D distributed triangle counting
// algorithms of Arifuzzaman et al. ("Distributed-Memory Parallel Algorithms
// for Counting and Listing Triangles in Big Graphs") that the paper compares
// against in Table 6:
//
//   - AOP (Algorithm with Overlapping Partitioning): every rank stores, in
//     addition to its own vertices' degree-oriented adjacency lists, the
//     lists of all neighbouring vertices (ghosts). Counting is then entirely
//     local — communication-avoiding at the price of memory.
//   - Surrogate: the space-efficient variant. Partitions are disjoint; for
//     every edge (u,v) crossing to another rank, u's adjacency list is
//     pushed to v's owner, which performs the intersection. Low memory,
//     high communication.
//
// Both orient edges by the degree order (ids after dgraph.RelabelByDegree)
// and count |N⁺(u) ∩ N⁺(v)| per edge (u,v), u < v, with sorted-list merges.
package aop

import (
	"slices"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// Result reports the outcome and phase breakdown of either variant.
type Result struct {
	Triangles  int64
	SetupTime  float64 // reorder + (for AOP) ghost exchange, virtual seconds
	CountTime  float64
	TotalTime  float64
	GhostLists int64 // AOP: adjacency lists replicated onto this rank
	PushedInts int64 // Surrogate: int32 words of adjacency pushed from this rank
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

// CountAOP runs the overlapping-partition algorithm.
func CountAOP(c *mpi.Comm, in *dgraph.Dist1D) (*Result, error) {
	res := &Result{}
	p := c.Size()

	c.Barrier()
	t0 := c.Time()

	g := dgraph.RelabelByDegree(c, in)

	// Ghost exchange: fetch N⁺(v) for every remote v referenced by a local
	// N⁺ list. Requests are deduplicated per destination.
	reqs := make([][]int32, p)
	for v := g.VBeg; v < g.VEnd; v++ {
		for _, u := range g.Above(v) {
			r := dgraph.BlockOwner(u, g.N, p)
			if r != c.Rank() {
				reqs[r] = append(reqs[r], u)
			}
		}
	}
	for r := range reqs {
		q := reqs[r]
		slices.Sort(q)
		w := 0
		for i, u := range q {
			if i > 0 && u == q[i-1] {
				continue
			}
			q[w] = u
			w++
		}
		reqs[r] = q[:w]
	}
	askCopies := make([][]int32, p)
	for r := range reqs {
		askCopies[r] = reqs[r]
	}
	asked := c.AlltoallvInt32(askCopies)
	resp := make([][]int32, p)
	for r := range asked {
		var out []int32
		for _, v := range asked[r] {
			above := g.Above(v)
			out = append(out, v, int32(len(above)))
			out = append(out, above...)
		}
		resp[r] = out
	}
	answers := c.AlltoallvInt32(resp)
	ghosts := make(map[int32][]int32)
	for _, part := range answers {
		i := 0
		for i < len(part) {
			v, d := part[i], int(part[i+1])
			ghosts[v] = part[i+2 : i+2+d]
			i += 2 + d
		}
	}
	res.GhostLists = int64(len(ghosts))

	c.Barrier()
	t1 := c.Time()
	res.SetupTime = t1 - t0

	// Fully local counting: for every owned u and every v ∈ N⁺(u),
	// intersect N⁺(u) with N⁺(v) (local or ghost).
	var localTris int64
	for u := g.VBeg; u < g.VEnd; u++ {
		above := g.Above(u)
		for _, v := range above {
			var nv []int32
			if v >= g.VBeg && v < g.VEnd {
				nv = g.Above(v)
			} else {
				nv = ghosts[v]
			}
			localTris += intersectSorted(above, nv)
		}
	}
	res.Triangles = c.AllreduceInt64(localTris, mpi.OpSum)

	c.Barrier()
	t2 := c.Time()
	res.CountTime = t2 - t1
	res.TotalTime = t2 - t0
	return res, nil
}

// CountSurrogate runs the space-efficient push-based algorithm: disjoint
// partitions, one copy of the graph, adjacency lists shipped to where the
// intersections happen.
func CountSurrogate(c *mpi.Comm, in *dgraph.Dist1D) (*Result, error) {
	res := &Result{}
	p := c.Size()

	c.Barrier()
	t0 := c.Time()
	g := dgraph.RelabelByDegree(c, in)
	c.Barrier()
	t1 := c.Time()
	res.SetupTime = t1 - t0

	// Local pairs are intersected in place; for every rank that owns at
	// least one v ∈ N⁺(u), u's list is pushed there once.
	var localTris int64
	push := make([][]int32, p)
	seen := make([]bool, p)
	for u := g.VBeg; u < g.VEnd; u++ {
		above := g.Above(u)
		for i := range seen {
			seen[i] = false
		}
		for _, v := range above {
			r := dgraph.BlockOwner(v, g.N, p)
			if r == c.Rank() {
				localTris += intersectSorted(above, g.Above(v))
				continue
			}
			if !seen[r] {
				seen[r] = true
				push[r] = append(push[r], u, int32(len(above)))
				push[r] = append(push[r], above...)
				res.PushedInts += int64(len(above)) + 2
			}
		}
	}
	got := c.AlltoallvInt32(push)
	for _, part := range got {
		i := 0
		for i < len(part) {
			d := int(part[i+1])
			list := part[i+2 : i+2+d]
			i += 2 + d
			// Intersect with every locally owned v on the list.
			for _, v := range list {
				if v >= g.VBeg && v < g.VEnd {
					localTris += intersectSorted(list, g.Above(v))
				}
			}
		}
	}
	res.Triangles = c.AllreduceInt64(localTris, mpi.OpSum)

	c.Barrier()
	t2 := c.Time()
	res.CountTime = t2 - t1
	res.TotalTime = t2 - t0
	return res, nil
}
