package dgraph

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"tc2d/internal/mpi"
)

// DegreeLabels computes, for the 1D block of an n-vertex graph that starts
// at vertex beg and holds len(deg) vertices, the new label of every local
// vertex under the global non-decreasing-degree order (ties broken by
// current id), and rewrites the block's adjacency into new labels in place.
// It is the distributed counting sort of the paper's §5.3: a vector
// exclusive scan over per-degree histograms plus an all-to-all
// request/response that resolves remote neighbours' labels.
//
// deg[lv] is the degree of local vertex beg+lv. spans yields the block's
// neighbour ids, every entry once, in spans of any size and order — only
// the entries matter, not which vertex they belong to — and is ranged over
// twice: once to collect the ids to resolve, once to overwrite each entry
// with its label. A caller that must keep its adjacency hands over a copy.
//
// bad is this rank's verdict on its own block, checked by the caller before
// the call: when it is non-nil, deg and spans are not read, and the ranks
// agree on the failure in the first allreduce, beside the maximum degree,
// so every rank returns an error and none waits in a later collective.
//
// ops, when non-nil, accumulates the number of adjacency-entry operations
// performed (the preprocessing op count reported in the paper's Figure 2).
func DegreeLabels(c *mpi.Comm, n int64, beg int32, deg []int32, spans iter.Seq[[]int32], bad error, ops *int64) ([]int32, error) {
	var dummy int64
	if ops == nil {
		ops = &dummy
	}
	p := c.Size()
	nloc := len(deg)

	// Local maximum degree, and this rank's failure flag.
	var dmaxLoc, failed int64
	if bad != nil {
		failed = 1
	} else {
		for _, d := range deg {
			dmaxLoc = max(dmaxLoc, int64(d))
		}
		*ops += int64(nloc)
	}
	agreed := c.AllreduceInt64s([]int64{dmaxLoc, failed}, mpi.OpMax)
	if bad != nil {
		return nil, bad
	}
	if agreed[1] != 0 {
		return nil, fmt.Errorf("dgraph: another rank holds a malformed 1D block")
	}
	dmax := agreed[0]

	// Histogram, exscan over ranks, global totals (cost dmax·log p, §5.4).
	hist := make([]int64, dmax+1)
	for _, d := range deg {
		hist[d]++
	}
	before := c.ExscanInt64s(hist)
	tot := c.AllreduceInt64s(hist, mpi.OpSum)

	labels := make([]int32, nloc)
	degStart := make([]int64, dmax+2)
	for d := int64(0); d <= dmax; d++ {
		degStart[d+1] = degStart[d] + tot[d]
	}
	seen := make([]int64, dmax+1)
	for lv, d := range deg {
		labels[lv] = int32(degStart[d] + before[d] + seen[d])
		seen[d]++
	}

	// Resolve neighbour labels. Every rank owns one contiguous id range, so
	// the unique ids to ask owner r for are the marked bits of that range —
	// scanning the bitmap emits them already sorted — and the position of
	// id u among ALL marked ids indexes the answers laid end to end in owner
	// order: no request list is sorted, searched or kept.
	asks := newIDSet(n)
	base := make([]int32, p+1) // marked ids below owner r's range
	reqs := make([][]int32, p)
	var entries int64
	for span := range spans {
		for _, u := range span {
			asks.add(u)
		}
		entries += int64(len(span))
	}
	*ops += entries
	asks.index()
	for r := 0; r < p; r++ {
		beg, end := BlockRange(r, n, p)
		base[r+1] = asks.pos(end)
		reqs[r] = asks.appendRange(make([]int32, 0, base[r+1]-base[r]), beg, end)
	}
	asked := c.AlltoallvInt32(reqs)
	resp := make([][]int32, p)
	for r := range asked {
		out := make([]int32, len(asked[r]))
		for i, u := range asked[r] {
			out[i] = labels[u-beg]
		}
		*ops += int64(len(out))
		resp[r] = out
	}
	answers := c.AlltoallvInt32(resp)

	flat := make([]int32, base[p])
	for r := range answers {
		copy(flat[base[r]:base[r+1]], answers[r])
	}
	for span := range spans {
		for i, u := range span {
			span[i] = flat[asks.pos(u)]
		}
	}
	*ops += entries
	return labels, nil
}

// Degrees returns the degree of every local vertex, by local index.
func (d *Dist1D) Degrees() []int32 {
	deg := make([]int32, d.NumLocal())
	for lv := range deg {
		deg[lv] = int32(d.Xadj[lv+1] - d.Xadj[lv])
	}
	return deg
}

// RelabelByDegree relabels the graph in non-decreasing degree order and
// redistributes it so that rank r owns the contiguous new-label range
// BlockRange(r): after this call, ids themselves encode the degree order
// (u > v implies deg(u) >= deg(v)) and BlockOwner answers ownership queries.
// The 1D baseline algorithms (Havoq-style wedge checking, AOP, Surrogate,
// OPT-PSP) all start from this form. in is only read — it may be a block
// ScatterGraph lent from the caller's graph — so the labels are written
// into a copy of its adjacency.
func RelabelByDegree(c *mpi.Comm, in *Dist1D) *Dist1D {
	newAdj := slices.Clone(in.Adj)
	// No rank reports a bad block, so the call cannot fail.
	labels, _ := DegreeLabels(c, in.N, in.VBeg, in.Degrees(), slices.Values([][]int32{newAdj}), nil, nil)
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
