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
// The epoch's phases: run the vertex-admission pre-pass (allocate
// OpAddVertices ranges above every id the batch references, take the max
// new id over edges, allreduce, and grow the resident blocks to the new
// space); resolve current labels of the batch endpoints through the
// retained cyclic/relabel maps (overflow ids resolve to themselves); expand
// each OpRemoveVertex into deletions of its full adjacency, gathered from
// the owning grid row's blocks; validate each edge update at the rank
// owning its U-side entry (inserts of present edges and deletes of absent
// ones become skips, consistently on every rank); capture pre-splice
// degrees for the wedge delta; run the deletion delta pass against the old
// graph; splice all blocks in place; run the insertion delta pass against
// the new graph; reduce the discovery buckets and fold the weighted formula
// into the resident totals.
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
	newN := c.AllreduceInt64(cursor, mpi.OpMax)
	if newN > math.MaxInt32 {
		return nil, fmt.Errorf("delta: batch grows the vertex space to %d ids, beyond the int32 label range: %w", newN, ErrVertexRange)
	}
	if newN > oldN {
		if err := prep.GrowTo(newN); err != nil {
			return nil, err
		}
	}

	// Resolve the current label of every distinct batch vertex. Base-region
	// ids go through the retained permutation: the block owner of the
	// vertex's cyclic id holds its slot, and a single max-allreduce over a
	// (-1)-initialized vector completes every rank's view. Overflow ids
	// (>= baseN) are their own labels — every rank fills them locally.
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
	req := make([]int64, len(verts))
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
	resolved := c.AllreduceInt64s(req, mpi.OpMax)

	// The labeled batch, canonical in label space (la < lb) for edge
	// entries, aligned with the batch order. Vertex entries keep their
	// removal label in edges[i][0].
	edges := make([][2]int32, nb)
	ops := make([]Op, nb)
	for i, upd := range batch {
		ops[i] = upd.Op
		switch ops[i] {
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
	for i := 0; i < nb; i++ {
		if ops[i] == OpRemoveVertex {
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

	// Validate edge entries: the owner of the directed (la → lb) entry
	// adjudicates. Vertex entries are always effective by construction.
	valid := make([]int64, nb)
	for i := range valid {
		if ops[i] != OpInsert && ops[i] != OpDelete {
			valid[i] = 1
			continue
		}
		valid[i] = -1
		la, lb := edges[i][0], edges[i][1]
		if int(la)%qr == x && int(lb)%qc == y {
			exists := prep.HasEdgeLocal(la, lb)
			ok := exists == (ops[i] == OpDelete)
			if ok {
				valid[i] = 1
			} else {
				valid[i] = 0
			}
		}
	}
	valid = c.AllreduceInt64s(valid, mpi.OpMax)

	r := &Result{
		Effective:       make([]bool, nb),
		VertexBases:     bases,
		RemovalDrops:    drops,
		AddedVertices:   int(newN - oldN),
		RemovedVertices: len(remIdx),
		GrownTo:         newN,
		VertexBase:      -1,
	}
	var ins, dels [][2]int32
	for i := 0; i < nb; i++ {
		switch {
		case valid[i] < 0:
			return nil, fmt.Errorf("delta: update %d had no adjudicating rank", i)
		case ops[i] == OpAddVertices:
			r.Effective[i] = true
			if r.VertexBase < 0 {
				r.VertexBase = bases[i]
			}
		case ops[i] == OpRemoveVertex:
			r.Effective[i] = true
		case valid[i] == 0:
			if ops[i] == OpInsert {
				r.SkippedExisting++
			} else {
				r.SkippedMissing++
			}
		case ops[i] == OpInsert:
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

	// Wedge delta: pre-splice degrees of the affected vertices (each grid
	// row's ranks hold disjoint column-class partials) plus the net
	// incident update count give the exact new wedge total. Every rank
	// derives the identical delta from the reduced degrees.
	// One sort of (label, sign) words — bit 0 set for an insertion —
	// groups every endpoint's updates together.
	var affected []int32 // ascending
	var net []int64      // net incident updates of affected[i]
	touched := make([]int64, 0, 2*(len(ins)+len(dels)))
	for _, e := range ins {
		touched = append(touched, int64(e[0])<<1|1, int64(e[1])<<1|1)
	}
	for _, e := range dels {
		touched = append(touched, int64(e[0])<<1, int64(e[1])<<1)
	}
	slices.Sort(touched)
	for _, t := range touched {
		w := int32(t >> 1)
		if n := len(affected); n == 0 || affected[n-1] != w {
			affected = append(affected, w)
			net = append(net, 0)
		}
		net[len(net)-1] += 2*(t&1) - 1
	}
	d0 := make([]int64, len(affected))
	for idx, w := range affected {
		if int(w)%qr == x {
			d0[idx] = int64(prep.AdjRow(w).Len())
		}
	}
	d0 = c.AllreduceInt64s(d0, mpi.OpSum)
	var dWedges int64
	for idx, old := range d0 {
		new_ := old + net[idx]
		dWedges += new_*(new_-1)/2 - old*(old-1)/2
	}

	// The affected set is replicated and is exactly the batch's degree
	// churn — feed it to the incremental-rebuild policy.
	prep.MarkDegreeDirty(affected)

	// Deletion pass against the old graph, splice, insertion pass against
	// the new graph.
	dCnt, dProbes := deltaPass(c, prep, dels, qr, qc, x, y)
	prep.Splice(c, ins, dels)
	iCnt, iProbes := deltaPass(c, prep, ins, qr, qc, x, y)

	sums := c.AllreduceInt64s([]int64{
		dCnt[0], dCnt[1], dCnt[2],
		iCnt[0], iCnt[1], iCnt[2],
		dProbes + iProbes,
	}, mpi.OpSum)
	if sums[1]%2 != 0 || sums[2]%3 != 0 || sums[4]%2 != 0 || sums[5]%3 != 0 {
		return nil, fmt.Errorf("delta: discovery buckets not divisible (%v) — resident state inconsistent", sums[:6])
	}
	r.DeltaTriangles = (sums[3] + sums[4]/2 + sums[5]/3) - (sums[0] + sums[1]/2 + sums[2]/3)
	r.Probes = sums[6]

	prep.AdjustTotals(int64(r.Inserted-r.Deleted), dWedges)
	r.M, r.Wedges = prep.M(), prep.Wedges()
	return r, nil
}

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
