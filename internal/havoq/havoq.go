// Package havoq re-implements the distributed triangle counting algorithm
// the paper compares against in Table 5: Pearce's HavoqGT approach ("Triangle
// counting for scale-free graphs at scale in distributed memory", HPEC'17).
//
// The algorithm, on a 1D vertex partition:
//
//  1. 2-core decomposition: repeatedly delete vertices of degree < 2 — they
//     cannot participate in any triangle. (Table 5's "2core time".)
//  2. Reorder the surviving vertices by non-decreasing degree and orient
//     every edge from lower to higher order.
//  3. Generate directed wedges (u→v, u→w) at each vertex u and query the
//     owner of v for the closing edge v→w. Every closed wedge is one
//     triangle. (Table 5's "directed wedge counting time".)
//
// Wedge queries are exchanged in bounded batches so that memory stays
// proportional to the batch size rather than the total wedge count.
package havoq

import (
	"sort"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// Options tunes the baseline.
type Options struct {
	// WedgeBatch bounds the number of wedge queries a rank buffers per
	// exchange round (default 1<<20).
	WedgeBatch int
}

// Result reports the outcome and phase breakdown, mirroring Table 5.
type Result struct {
	Triangles    int64
	Wedges       int64   // directed wedges generated (global)
	Removed      int64   // vertices deleted by the 2-core pass (global)
	TwoCoreTime  float64 // parallel virtual seconds
	WedgeTime    float64
	TotalTime    float64
	QueryRounds  int
	BytesQueried int64
}

// Count runs the Havoq-style baseline over the calling rank's share of the
// graph. All ranks must call it collectively.
func Count(c *mpi.Comm, in *dgraph.Dist1D, opt Options) (*Result, error) {
	if opt.WedgeBatch <= 0 {
		opt.WedgeBatch = 1 << 20
	}
	res := &Result{}
	p := c.Size()

	c.Barrier()
	t0 := c.Time()

	// ---- Phase 1: distributed 2-core decomposition.
	nloc := int(in.VEnd - in.VBeg)
	alive := make([]bool, nloc)
	curDeg := make([]int64, nloc)
	removedAdj := make([]bool, len(in.Adj)) // marks deleted adjacency entries
	var localRemoved int64
	for lv := 0; lv < nloc; lv++ {
		alive[lv] = true
		curDeg[lv] = in.Xadj[lv+1] - in.Xadj[lv]
	}
	for {
		// Collect vertices that fall out of the 2-core this round and
		// notify their surviving neighbours.
		notices := make([][]int32, p) // pairs (neighbour, dying vertex)
		var dying int64
		for lv := 0; lv < nloc; lv++ {
			if !alive[lv] || curDeg[lv] >= 2 {
				continue
			}
			alive[lv] = false
			dying++
			v := in.VBeg + int32(lv)
			for i := in.Xadj[lv]; i < in.Xadj[lv+1]; i++ {
				if removedAdj[i] {
					continue
				}
				u := in.Adj[i]
				removedAdj[i] = true
				d := dgraph.BlockOwner(u, in.N, p)
				notices[d] = append(notices[d], u, v)
			}
		}
		total := c.AllreduceInt64(dying, mpi.OpSum)
		localRemoved += dying
		if total == 0 {
			break
		}
		got := c.AlltoallvInt32(notices)
		for _, part := range got {
			for i := 0; i < len(part); i += 2 {
				u, v := part[i], part[i+1]
				lu := int(u - in.VBeg)
				if lu < 0 || lu >= nloc {
					panic("havoq: notice for non-local vertex")
				}
				// Remove v from u's adjacency (if still present).
				row := in.Adj[in.Xadj[lu]:in.Xadj[lu+1]]
				idx := sort.Search(len(row), func(k int) bool { return row[k] >= v })
				if idx < len(row) && row[idx] == v && !removedAdj[in.Xadj[lu]+int64(idx)] {
					removedAdj[in.Xadj[lu]+int64(idx)] = true
					curDeg[lu]--
				}
			}
		}
	}
	res.Removed = c.AllreduceInt64(localRemoved, mpi.OpSum)

	// Build the pruned 2-core graph as a Dist1D (dead vertices keep empty
	// lists; they receive the lowest labels in the reorder and generate no
	// wedges).
	pruned := &dgraph.Dist1D{N: in.N, VBeg: in.VBeg, VEnd: in.VEnd}
	xadj := make([]int64, nloc+1)
	adj := make([]int32, 0, len(in.Adj))
	for lv := 0; lv < nloc; lv++ {
		if alive[lv] {
			for i := in.Xadj[lv]; i < in.Xadj[lv+1]; i++ {
				if !removedAdj[i] {
					adj = append(adj, in.Adj[i])
				}
			}
		}
		xadj[lv+1] = int64(len(adj))
	}
	pruned.Xadj = xadj
	pruned.Adj = adj

	c.Barrier()
	t1 := c.Time()
	res.TwoCoreTime = t1 - t0

	// ---- Phase 2: degree reorder + directed wedge checking.
	ordered := dgraph.RelabelByDegree(c, pruned)

	// Wedge generation state: iterate local vertices; for vertex u with
	// out-neighbours n⁺(u) = {v₁ < v₂ < ...}, emit queries (vᵢ, vⱼ) for
	// i<j to the owner of vᵢ.
	type cursor struct {
		lv   int // local vertex index
		a, b int // positions within Above(lv)
	}
	cur := cursor{}
	nlocO := int(ordered.VEnd - ordered.VBeg)
	var localTris, localWedges int64
	for {
		queries := make([][]int32, p)
		budget := opt.WedgeBatch
		for cur.lv < nlocO && budget > 0 {
			v := ordered.VBeg + int32(cur.lv)
			out := ordered.Above(v)
			if len(out) < 2 {
				cur.lv++
				cur.a, cur.b = 0, 0
				continue
			}
			if cur.b == 0 {
				cur.b = cur.a + 1
			}
			for cur.a < len(out)-1 && budget > 0 {
				va := out[cur.a]
				dst := dgraph.BlockOwner(va, ordered.N, p)
				for cur.b < len(out) && budget > 0 {
					queries[dst] = append(queries[dst], va, out[cur.b])
					localWedges++
					budget--
					cur.b++
				}
				if cur.b == len(out) {
					cur.a++
					cur.b = cur.a + 1
				}
			}
			if cur.a >= len(out)-1 {
				cur.lv++
				cur.a, cur.b = 0, 0
			}
		}
		more := int64(0)
		if cur.lv < nlocO {
			more = 1
		}
		pending := c.AllreduceInt64(more, mpi.OpSum)
		got := c.AlltoallvInt32(queries)
		res.QueryRounds++
		for _, part := range got {
			res.BytesQueried += int64(4 * len(part))
			for i := 0; i < len(part); i += 2 {
				v, w := part[i], part[i+1]
				out := ordered.Above(v)
				idx := sort.Search(len(out), func(k int) bool { return out[k] >= w })
				if idx < len(out) && out[idx] == w {
					localTris++
				}
			}
		}
		if pending == 0 {
			break
		}
	}
	sums := c.AllreduceInt64s([]int64{localTris, localWedges}, mpi.OpSum)
	res.Triangles, res.Wedges = sums[0], sums[1]

	c.Barrier()
	t2 := c.Time()
	res.WedgeTime = t2 - t1
	res.TotalTime = t2 - t0
	return res, nil
}
