package delta

import (
	"fmt"
	"math"
	"slices"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// packEdge packs a label pair, canonical (a < b) order, into one ordered key.
func packEdge(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(uint32(b))
}

// Apply runs one canonicalized update batch against resident state as a
// single SPMD epoch. Every rank calls it with its own Prepared state and
// the same batch, which every engine already hands to every rank; ranks may
// share one slice, so Apply only reads it. The returned Result is identical
// on every rank and reports zero preprocessing operations: the pipeline
// never re-runs.
//
// Apply mutates the resident blocks in place (GrowTo, Splice,
// AdjustTotals), so it must run as an exclusive write epoch (World.Run) —
// never concurrently with CountPrepared read epochs over the same state.
//
// The batch fixes every input of the epoch, so its agreement takes three
// reductions, each fusing what the batch already determines:
//
//  1. MAX: the current labels of the batch's endpoints, resolved through
//     the retained cyclic/relabel maps (overflow ids resolve to
//     themselves), with the new vertex bound as one more lane — every rank
//     derives the same bound, allocating OpAddVertices ranges above every
//     id the batch references. Every rank then grows its resident blocks to
//     the new space.
//  2. SUM: the validity of each edge update, adjudicated by the rank owning
//     its U-side entry (inserts of present edges and deletes of absent ones
//     become skips, consistently on every rank), with the pre-splice degree
//     partials of every label the batch can touch, from which the wedge
//     delta reads the labels the effective updates do touch. An
//     OpRemoveVertex expands into deletions of its full adjacency, gathered
//     from the owning grid row's blocks before this round (one all-to-all),
//     so its neighbours are among those labels.
//  3. SUM and MAX: the discovery buckets of the deletion pass, run against
//     the old graph, and of the insertion pass, run against the spliced
//     one (one all-to-all each), with the probes and each rank's longest U
//     row, which becomes the replicated maxURow. The insertion pass does
//     not read maxURow.
//
// The weighted formula over the buckets then moves the resident totals.
func Apply(c *mpi.Comm, prep *core.Prepared, batch []Update) (*Result, error) {
	p := c.Size()
	baseN := prep.BaseN()
	qr, qc, _ := prep.GridShape()
	x, y := c.Rank()/qc, c.Rank()%qc

	nb := len(batch)

	// Vertex-admission pre-pass: deterministic over the batch.
	// Explicit growth allocates contiguous ranges ABOVE every id the
	// batch's edges reference, so AddVertices callers always receive fresh
	// ids even when another coalesced batch names raw high ids.
	oldN := prep.N()
	bases := make([]int64, nb)
	removedOrig := map[int32]struct{}{}
	for i, upd := range batch {
		bases[i] = -1
		u := upd.U
		if upd.Op != OpRemoveVertex {
			continue
		}
		if u < 0 || int64(u) >= oldN {
			return nil, fmt.Errorf("delta: removal of vertex %d outside the current space [0, %d): %w", u, oldN, ErrVertexRange)
		}
		removedOrig[u] = struct{}{}
	}
	cursor := oldN
	for _, upd := range batch {
		u, v := upd.U, upd.V
		if upd.Op != OpInsert && upd.Op != OpDelete {
			continue
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("delta: update (%d, %d) has a negative endpoint: %w", u, v, ErrVertexRange)
		}
		_, remU := removedOrig[u]
		_, remV := removedOrig[v]
		if remU || remV {
			return nil, fmt.Errorf("delta: batch removes a vertex of edge (%d, %d) and also updates it", u, v)
		}
		if e := int64(u) + 1; e > cursor {
			cursor = e
		}
		if e := int64(v) + 1; e > cursor {
			cursor = e
		}
	}
	for i, upd := range batch {
		if upd.Op == OpAddVertices {
			bases[i] = cursor
			cursor += int64(upd.U)
		}
	}

	// Round 1. Base-region ids go through the retained permutation: the
	// block owner of the vertex's cyclic id holds its slot, and the others
	// leave the lane at -1. Overflow ids (>= baseN) are their own labels —
	// every rank fills them locally.
	verts := make([]int32, 0, 2*nb)
	for _, upd := range batch {
		switch upd.Op {
		case OpInsert, OpDelete:
			verts = append(verts, upd.U, upd.V)
		case OpRemoveVertex:
			verts = append(verts, upd.U)
		}
	}
	slices.Sort(verts)
	verts = slices.Compact(verts)
	offsets := core.CyclicOffsets(baseN, p)
	labelBeg, labels := prep.Labels()
	req := make([]int64, len(verts)+1)
	for idx, v := range verts {
		if int64(v) >= baseN {
			req[idx] = int64(v) // overflow: identity label
			continue
		}
		req[idx] = -1
		v1 := core.CyclicID(offsets, v, p)
		if dgraph.BlockOwner(v1, baseN, p) == c.Rank() {
			req[idx] = int64(labels[v1-labelBeg])
		}
	}
	req[len(verts)] = cursor
	resolved := c.AllreduceInt64s(req, mpi.OpMax)
	newN := resolved[len(verts)]
	if newN > math.MaxInt32 {
		return nil, fmt.Errorf("delta: batch grows the vertex space to %d ids, beyond the int32 label range: %w", newN, ErrVertexRange)
	}
	if newN > oldN {
		if err := prep.GrowTo(newN); err != nil {
			return nil, err
		}
	}

	// The labeled batch, canonical in label space (la < lb) for edge
	// entries, aligned with the batch order. Vertex entries keep their
	// removal label in edges[i][0].
	edges := make([][2]int32, nb)
	for i, upd := range batch {
		switch upd.Op {
		case OpInsert, OpDelete:
			la, lb := labelOf(verts, resolved, upd.U), labelOf(verts, resolved, upd.V)
			if la > lb {
				la, lb = lb, la
			}
			edges[i] = [2]int32{la, lb}
		case OpRemoveVertex:
			edges[i] = [2]int32{labelOf(verts, resolved, upd.U), -1}
		default:
			edges[i] = [2]int32{-1, -1}
		}
	}

	// Expand vertex removals: every rank needs the full adjacency of each
	// removed label to build the identical deletion list.
	var remIdx []int
	var remLabels []int32
	for i, upd := range batch {
		if upd.Op == OpRemoveVertex {
			remIdx = append(remIdx, i)
			remLabels = append(remLabels, edges[i][0])
		}
	}
	drops := make([]int32, nb)
	var removalDels [][2]int32
	if len(remIdx) > 0 {
		dropSet := make(map[int64]struct{})
		for k, neighbors := range gatherRows(c, prep, remLabels) {
			i := remIdx[k]
			lw := edges[i][0]
			for _, u := range neighbors {
				key := packEdge(lw, u)
				if _, dup := dropSet[key]; dup {
					continue
				}
				dropSet[key] = struct{}{}
				la, lb := lw, u
				if la > lb {
					la, lb = lb, la
				}
				removalDels = append(removalDels, [2]int32{la, lb})
				drops[i]++
			}
		}
	}

	// Round 2. Every label the batch can touch: the endpoints of its edge
	// updates and of its removals' deletions.
	cand := make([]int32, 0, 2*(nb+len(removalDels)))
	for i, upd := range batch {
		if upd.Op == OpInsert || upd.Op == OpDelete {
			cand = append(cand, edges[i][0], edges[i][1])
		}
	}
	for _, e := range removalDels {
		cand = append(cand, e[0], e[1])
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)
	// Lane i < nb is edge update i's validity: the owner of the directed
	// (la → lb) entry adds 1, plus 1 when the update is effective, so 0
	// means no rank adjudicated it. Vertex entries are effective by
	// construction and decided locally. Lane nb + j is this rank's partial
	// degree of cand[j]: each grid row's ranks hold disjoint column classes.
	lanes := make([]int64, nb+len(cand))
	for i, upd := range batch {
		if upd.Op != OpInsert && upd.Op != OpDelete {
			continue
		}
		la, lb := edges[i][0], edges[i][1]
		if int(la)%qr == x && int(lb)%qc == y {
			lanes[i] = 1
			if prep.HasEdgeLocal(la, lb) == (upd.Op == OpDelete) {
				lanes[i] = 2
			}
		}
	}
	for j, w := range cand {
		if int(w)%qr == x {
			lanes[nb+j] = int64(prep.AdjRow(w).Len())
		}
	}
	lanes = c.AllreduceInt64s(lanes, mpi.OpSum)
	valid, d0 := lanes[:nb], lanes[nb:]

	r := &Result{
		Effective:       make([]bool, nb),
		VertexBases:     bases,
		RemovalDrops:    drops,
		AddedVertices:   int(newN - oldN),
		RemovedVertices: len(remIdx),
		GrownTo:         newN,
		VertexBase:      -1,
	}
	// Sized for every edge update taking effect.
	var nIns, nDel int
	for _, upd := range batch {
		switch upd.Op {
		case OpInsert:
			nIns++
		case OpDelete:
			nDel++
		}
	}
	ins := make([][2]int32, 0, nIns)
	dels := make([][2]int32, 0, nDel+len(removalDels))
	for i, upd := range batch {
		switch {
		case upd.Op == OpAddVertices:
			r.Effective[i] = true
			if r.VertexBase < 0 {
				r.VertexBase = bases[i]
			}
		case upd.Op == OpRemoveVertex:
			r.Effective[i] = true
		case valid[i] == 0:
			return nil, fmt.Errorf("delta: update %d had no adjudicating rank", i)
		case valid[i] == 1:
			if upd.Op == OpInsert {
				r.SkippedExisting++
			} else {
				r.SkippedMissing++
			}
		case upd.Op == OpInsert:
			ins = append(ins, edges[i])
			r.Effective[i] = true
		default:
			dels = append(dels, edges[i])
			r.Effective[i] = true
		}
	}
	dels = append(dels, removalDels...)
	r.Inserted = len(ins)
	r.Deleted = len(dels)

	// Wedge delta: the pre-splice degree of every affected label plus its
	// net incident update count give the exact new wedge total; every rank
	// derives the identical delta. One sort of (label, sign) words — bit 0
	// set for an insertion — groups every endpoint's updates together, and
	// the affected labels, ascending, are a subsequence of cand.
	touched := make([]int64, 0, 2*(len(ins)+len(dels)))
	for _, e := range ins {
		touched = append(touched, int64(e[0])<<1|1, int64(e[1])<<1|1)
	}
	for _, e := range dels {
		touched = append(touched, int64(e[0])<<1, int64(e[1])<<1)
	}
	slices.Sort(touched)
	affected := make([]int32, 0, min(len(touched), len(cand)))
	var dWedges int64
	for k, j := 0, 0; k < len(touched); {
		w := int32(touched[k] >> 1)
		var net int64
		for ; k < len(touched) && int32(touched[k]>>1) == w; k++ {
			net += 2*(touched[k]&1) - 1
		}
		for cand[j] != w {
			j++
		}
		old := d0[j]
		new_ := old + net
		dWedges += new_*(new_-1)/2 - old*(old-1)/2
		affected = append(affected, w)
	}

	// The affected set is replicated and is exactly the batch's degree
	// churn — feed it to the incremental-rebuild policy.
	prep.MarkDegreeDirty(affected)

	// Deletion pass against the old graph, splice, insertion pass against
	// the new graph.
	dCnt, dProbes := deltaPass(c, prep, dels, qr, qc, x, y)
	longest := prep.Splice(c.Rank(), ins, dels)
	iCnt, iProbes := deltaPass(c, prep, ins, qr, qc, x, y)

	// Round 3.
	sums := c.AllreduceLanes([]int64{
		dCnt[0], dCnt[1], dCnt[2],
		iCnt[0], iCnt[1], iCnt[2],
		dProbes + iProbes,
		longest,
	}, roundThree)
	prep.SetMaxURow(sums[7])
	if sums[1]%2 != 0 || sums[2]%3 != 0 || sums[4]%2 != 0 || sums[5]%3 != 0 {
		return nil, fmt.Errorf("delta: discovery buckets not divisible (%v) — resident state inconsistent", sums[:6])
	}
	r.DeltaTriangles = (sums[3] + sums[4]/2 + sums[5]/3) - (sums[0] + sums[1]/2 + sums[2]/3)
	r.Probes = sums[6]

	prep.AdjustTotals(int64(r.Inserted-r.Deleted), dWedges)
	r.M, r.Wedges = prep.M(), prep.Wedges()
	return r, nil
}

// roundThree is the operator of each lane of Apply's last reduction: six
// discovery buckets and the probes summed, the longest U row maximized.
var roundThree = []mpi.Op{mpi.OpSum, mpi.OpSum, mpi.OpSum, mpi.OpSum, mpi.OpSum, mpi.OpSum, mpi.OpSum, mpi.OpMax}

// gatherRows returns every label's full adjacency, identical on every rank:
// the ranks of the label's grid row each hold one column-class slice of it
// and replicate their slices, in labels, to all ranks through the
// all-to-all. A row is its slices in rank order, each in part order, so it
// is not sorted. Every rank must call it with the same labels.
func gatherRows(c *mpi.Comm, prep *core.Prepared, labels []int32) [][]int32 {
	qr, qc, _ := prep.GridShape()
	x := c.Rank() / qc
	need := 0
	for _, w := range labels {
		if int(w)%qr == x {
			if l := prep.AdjRow(w).Len(); l > 0 {
				need += 2 + l
			}
		}
	}
	mine := make([]int32, 0, need)
	for k, w := range labels {
		if int(w)%qr != x {
			continue
		}
		if l := prep.AdjRow(w).Len(); l > 0 {
			mine = append(mine, int32(k), int32(l))
			mine = prep.AdjRow(w).AppendLabels(mine)
		}
	}
	// The receivers own what they get, so each other rank gets a copy.
	send := make([][]int32, c.Size())
	for dst := range send {
		if dst == c.Rank() {
			send[dst] = mine
		} else {
			send[dst] = slices.Clone(mine)
		}
	}
	rows := make([][]int32, len(labels))
	for _, buf := range c.AlltoallvInt32(send) {
		for i := 0; i < len(buf); {
			k, l := buf[i], int(buf[i+1])
			rows[k] = append(rows[k], buf[i+2:i+2+l]...)
			i += 2 + l
		}
	}
	return rows
}

// labelOf returns the resolved current label of batch vertex v, an element
// of the sorted verts.
func labelOf(verts []int32, resolved []int64, v int32) int32 {
	i, _ := slices.BinarySearch(verts, v)
	return int32(resolved[i])
}

// deltaPass counts the discoveries of triangles through each marked edge
// against the current resident graph, bucketed by how many of the other two
// edges are themselves marked (0, 1 or 2). The marked list must be identical
// on every rank.
//
// For marked edge (a, b) and each grid column class, the rank holding row a
// in that class ships the row, as column keys, to the rank holding row b
// (same grid column, grid row b mod qr), where the two rows become one pair
// of core.Prepared.IntersectPairs — the count kernel's bitmap intersection.
// Third vertices are partitioned by column residue, so the union over classes
// covers each one exactly once. Rows whose endpoints share a grid row pair up
// locally; all cross-row traffic travels through one all-to-all. The second
// result is the bitmap lookups made.
func deltaPass(c *mpi.Comm, prep *core.Prepared, marked [][2]int32, qr, qc, x, y int) ([3]int64, int64) {
	var cnt [3]int64
	if len(marked) == 0 {
		return cnt, 0
	}
	mset := make([]int64, len(marked)) // sorted packed pairs: the membership test of hit
	for i, e := range marked {
		mset[i] = packEdge(e[0], e[1])
	}
	slices.Sort(mset)
	// Row a of a cross-row edge travels to the rank holding row b: size
	// every send buffer first, then fill it.
	ours := 0 // this rank's pairs: one per marked edge whose row b it holds
	need := make([]int, c.Size())
	for _, e := range marked {
		ar, br := int(e[0])%qr, int(e[1])%qr
		if br == x {
			ours++
		} else if ar == x {
			need[br*qc+y] += 2 + prep.AdjRow(e[0]).Len()
		}
	}
	send := make([][]int32, c.Size())
	for dst := range send {
		send[dst] = make([]int32, 0, need[dst])
	}
	for i, e := range marked {
		if ar, br := int(e[0])%qr, int(e[1])%qr; ar == x && br != x {
			row := prep.AdjRow(e[0])
			dst := br*qc + y
			send[dst] = append(send[dst], int32(i), int32(row.Len()))
			send[dst] = row.AppendKeys(send[dst])
		}
	}
	got := c.AlltoallvInt32(send)
	// This rank's pairs — locally intersectable marked edges plus the rows
	// shipped in for cross-row edges — and the marked edge of each.
	pairs := make([]core.Pair, 0, ours)
	of := make([][2]int32, 0, ours)
	for _, e := range marked {
		if br := int(e[1]) % qr; int(e[0])%qr == br && br == x {
			pairs = append(pairs, core.Pair{A: prep.AdjRow(e[0]), B: e[1]})
			of = append(of, e)
		}
	}
	for _, buf := range got {
		for i := 0; i < len(buf); {
			e, l := marked[buf[i]], int(buf[i+1])
			pairs = append(pairs, core.Pair{A: core.KeyRow(buf[i+2 : i+2+l]), B: e[1]})
			of = append(of, e)
			i += 2 + l
		}
	}
	probes := prep.IntersectPairs(pairs, func(i int, w int32) {
		o := 0
		if _, ok := slices.BinarySearch(mset, packEdge(of[i][0], w)); ok {
			o++
		}
		if _, ok := slices.BinarySearch(mset, packEdge(of[i][1], w)); ok {
			o++
		}
		cnt[o]++
	})
	return cnt, probes
}
