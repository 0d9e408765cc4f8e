package dgraph

import (
	"slices"
	"sort"

	"tc2d/internal/mpi"
)

// DegreeLabels computes, for a 1D block-distributed graph, the new label of
// every local vertex under the global non-decreasing-degree order (ties
// broken by current id), and rewrites the local adjacency lists into new
// labels. It is the distributed counting sort of the paper's §5.3: a vector
// exclusive scan over per-degree histograms plus an all-to-all
// request/response that resolves remote neighbours' labels.
//
// The relabeled adjacency is written into newAdj, which must have
// len(in.Adj) entries and may be in.Adj itself: entry i is read before it
// is written, so a caller that owns its block relabels it in place.
//
// ops, when non-nil, accumulates the number of adjacency-entry operations
// performed (the preprocessing op count reported in the paper's Figure 2).
func DegreeLabels(c *mpi.Comm, in *Dist1D, newAdj []int32, ops *int64) (labels []int32) {
	var dummy int64
	if ops == nil {
		ops = &dummy
	}
	p := c.Size()
	nloc := int(in.VEnd - in.VBeg)

	// Local degrees and maximum.
	var dmaxLoc int64
	deg := make([]int32, nloc)
	for lv := 0; lv < nloc; lv++ {
		d := in.Xadj[lv+1] - in.Xadj[lv]
		deg[lv] = int32(d)
		if d > dmaxLoc {
			dmaxLoc = d
		}
	}
	*ops += int64(nloc)
	dmax := c.AllreduceInt64(dmaxLoc, mpi.OpMax)

	// Histogram, exscan over ranks, global totals (cost dmax·log p, §5.4).
	hist := make([]int64, dmax+1)
	for _, d := range deg {
		hist[d]++
	}
	before := c.ExscanInt64s(hist)
	tot := c.AllreduceInt64s(hist, mpi.OpSum)

	labels = make([]int32, nloc)
	degStart := make([]int64, dmax+2)
	for d := int64(0); d <= dmax; d++ {
		degStart[d+1] = degStart[d] + tot[d]
	}
	seen := make([]int64, dmax+1)
	for lv := 0; lv < nloc; lv++ {
		d := deg[lv]
		labels[lv] = int32(degStart[d] + before[d] + seen[d])
		seen[d]++
	}

	// Resolve neighbour labels. Every rank owns one contiguous id range, so
	// the unique ids to ask owner r for are the marked bits of that range —
	// scanning the bitmap emits them already sorted — and the position of
	// id u among ALL marked ids indexes the answers laid end to end in owner
	// order: no request list is sorted, searched or kept.
	asks := newIDSet(in.N)
	base := make([]int32, p+1) // marked ids below owner r's range
	reqs := make([][]int32, p)
	for _, u := range in.Adj {
		asks.add(u)
	}
	*ops += int64(len(in.Adj))
	asks.index()
	for r := 0; r < p; r++ {
		beg, end := BlockRange(r, in.N, p)
		base[r+1] = asks.pos(end)
		reqs[r] = asks.appendRange(make([]int32, 0, base[r+1]-base[r]), beg, end)
	}
	asked := c.AlltoallvInt32(reqs)
	resp := make([][]int32, p)
	for r := range asked {
		out := make([]int32, len(asked[r]))
		for i, u := range asked[r] {
			out[i] = labels[u-in.VBeg]
		}
		*ops += int64(len(out))
		resp[r] = out
	}
	answers := c.AlltoallvInt32(resp)

	flat := make([]int32, base[p])
	for r := range answers {
		copy(flat[base[r]:base[r+1]], answers[r])
	}
	for i, u := range in.Adj {
		newAdj[i] = flat[asks.pos(u)]
	}
	*ops += int64(len(in.Adj))
	return labels
}

// RelabelByDegree relabels the graph in non-decreasing degree order and
// redistributes it so that rank r owns the contiguous new-label range
// BlockRange(r): after this call, ids themselves encode the degree order
// (u > v implies deg(u) >= deg(v)) and BlockOwner answers ownership queries.
// The 1D baseline algorithms (Havoq-style wedge checking, AOP, Surrogate,
// OPT-PSP) all start from this form. in is only read — it may be a block
// ScatterGraph lent from the caller's graph — so the labels go to an array
// of their own.
func RelabelByDegree(c *mpi.Comm, in *Dist1D) *Dist1D {
	newAdj := make([]int32, len(in.Adj))
	labels := DegreeLabels(c, in, newAdj, nil)
	p := c.Size()
	nloc := int(in.VEnd - in.VBeg)

	// Route each vertex (new id, adjacency) to the block owner of its new
	// id, with lists sorted for downstream merge intersections.
	sendbuf := make([][]int32, p)
	need := make([]int, p)
	for lv := 0; lv < nloc; lv++ {
		need[BlockOwner(labels[lv], in.N, p)] += 2 + int(in.Xadj[lv+1]-in.Xadj[lv])
	}
	for dst := range sendbuf {
		sendbuf[dst] = make([]int32, 0, need[dst])
	}
	for lv := 0; lv < nloc; lv++ {
		w := labels[lv]
		dst := BlockOwner(w, in.N, p)
		row := newAdj[in.Xadj[lv]:in.Xadj[lv+1]]
		slices.Sort(row)
		buf := append(sendbuf[dst], w, int32(len(row)))
		sendbuf[dst] = append(buf, row...)
	}
	got := c.AlltoallvInt32(sendbuf)

	beg, end := BlockRange(c.Rank(), in.N, p)
	return AssembleRows(in.N, beg, end, got)
}

// Above returns the suffix of the (sorted) adjacency of local vertex v with
// ids greater than v — the degree-ordered out-neighbourhood N⁺(v) the 1D
// algorithms orient edges by. The input must come from RelabelByDegree.
func (d *Dist1D) Above(v int32) []int32 {
	row := d.Neighbors(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] > v })
	return row[i:]
}

// Below returns the prefix of the adjacency of local vertex v with ids less
// than v.
func (d *Dist1D) Below(v int32) []int32 {
	row := d.Neighbors(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return row[:i]
}
