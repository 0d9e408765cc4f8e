package delta

import (
	"fmt"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// Rebuild re-runs the preprocessing pipeline over the CURRENT resident
// graph — fresh degree ordering, fresh 2D blocks — inside the same world,
// and returns the replacement per-rank state. Updates shift degrees, so
// after enough of them the retained non-decreasing-degree relabeling no
// longer reflects the graph and the kernel's load balance and early-break
// effectiveness degrade; a rebuild restores them without tearing down the
// world or the transport.
//
// Three steps, all SPMD: (1) every rank routes its partial rows to the 1D
// block owners of the row vertices, reassembling a Dist1D over the current
// label space; (2) the ordinary PrepareGrid pipeline runs on it, on the same
// grid shape and schedule, under the ⟨j,i,k⟩ rule; (3) the fresh
// permutation — which maps the previous label space — is composed with the
// retained one through a request/response, so the returned state
// routes original vertex ids directly, no matter how many rebuilds have
// run. The triangle count is untouched (same graph, new layout); edge and
// wedge totals are recomputed by the pipeline and verified against the
// incrementally maintained ones.
//
// Like Apply, Rebuild must run as an exclusive write epoch (World.Run): it
// reads the retained label maps and blocks while replacement state is
// under construction, and the caller swaps the returned state in — neither
// may race a CountPrepared read epoch.
func Rebuild(c *mpi.Comm, prep *core.Prepared) (*core.Prepared, error) {
	p := c.Size()
	n := prep.N()
	qr, qc, summa := prep.GridShape()

	// (1) Reassemble the current graph as a 1D block distribution over the
	// current labels: each rank's blocks hold one column-class slice of
	// each of its rows, routed to the block owner of the row vertex.
	// Counting pre-pass so each destination buffer is allocated exactly
	// once instead of growing through repeated appends.
	send := make([][]int32, p)
	need := make([]int, p)
	x := c.Rank() / qc
	for la := int32(x); int64(la) < n; la += int32(qr) {
		if l := prep.AdjRow(la).Len(); l > 0 {
			need[dgraph.BlockOwner(la, n, p)] += 2 + l
		}
	}
	for dst := range send {
		send[dst] = make([]int32, 0, need[dst])
	}
	for la := int32(x); int64(la) < n; la += int32(qr) {
		l := prep.AdjRow(la).Len()
		if l == 0 {
			continue
		}
		dst := dgraph.BlockOwner(la, n, p)
		send[dst] = append(send[dst], la, int32(l))
		send[dst] = prep.AdjRow(la).AppendLabels(send[dst])
	}
	got := c.AlltoallvInt32(send)
	beg, end := dgraph.BlockRange(c.Rank(), n, p)
	// The rows stay in arrival order: the pipeline's output does not
	// depend on the order inside a row (core's TestPrepareIgnoresRowOrder).
	dist := dgraph.AssembleRows(n, beg, end, got)

	// (2) The ordinary pipeline, same grid shape.
	np, err := core.PrepareGrid(c, dist, qr, qc, summa, core.Options{})
	if err != nil {
		return nil, err
	}
	if np.M() != prep.M() || np.Wedges() != prep.Wedges() {
		return nil, fmt.Errorf("delta: rebuild recomputed m=%d wedges=%d, maintained m=%d wedges=%d",
			np.M(), np.Wedges(), prep.M(), prep.Wedges())
	}

	// (3) Compose the permutations: the fresh state's map is keyed by
	// cyclic ids of the OLD label space; rewrite each retained slot
	// (cyclic-original id → old label) through the owner of the old
	// label's cyclic id. The composition also FOLDS the overflow region:
	// the retained map only covers original ids below the old base, while
	// overflow ids carried identity labels — so the new map is built over
	// the full grown space (rank r owns the ids ≡ r mod p in both the old
	// and the new cyclic layout; slot i of either map is id r + p·i),
	// reading old labels from the retained slots where they exist and
	// from the identity elsewhere. Afterwards BaseN == N again: the
	// overflow region is empty and every id routes through one clean
	// cyclic + degree-ordered composition.
	oldBase := prep.BaseN()
	offsets := core.CyclicOffsets(n, p)
	_, oldLabels := prep.Labels()
	newBeg, newLabels := np.Labels()
	r := c.Rank()
	nloc := 0
	if int64(r) < n {
		nloc = int((n - int64(r) + int64(p) - 1) / int64(p))
	}
	// Slot lv asks the owner of its old label's cyclic id for the label's
	// new label. A counting pass sizes every request buffer; the answers
	// come back in request order, so a second walk of the slots reads them.
	oldLabel := func(lv int) int32 {
		w := int32(int64(r) + int64(p)*int64(lv)) // identity for overflow ids
		if int64(w) < oldBase {
			w = oldLabels[lv]
		}
		return w
	}
	ownerOf := func(w int32) int { return dgraph.BlockOwner(core.CyclicID(offsets, w, p), n, p) }
	clear(need)
	for lv := 0; lv < nloc; lv++ {
		need[ownerOf(oldLabel(lv))]++
	}
	req := make([][]int32, p)
	for dst := range req {
		req[dst] = make([]int32, 0, need[dst])
	}
	for lv := 0; lv < nloc; lv++ {
		w := oldLabel(lv)
		dst := ownerOf(w)
		req[dst] = append(req[dst], w)
	}
	asked := c.AlltoallvInt32(req)
	resp := make([][]int32, p)
	for src, ws := range asked {
		out := make([]int32, len(ws))
		for j, w := range ws {
			out[j] = newLabels[core.CyclicID(offsets, w, p)-newBeg]
		}
		resp[src] = out
	}
	answers := c.AlltoallvInt32(resp)
	composed := make([]int32, nloc)
	clear(need)
	for lv := range composed {
		dst := ownerOf(oldLabel(lv))
		composed[lv] = answers[dst][need[dst]]
		need[dst]++
	}
	np.SetLabels(int32(offsets[r]), composed)
	np.SetSpaceVersion(prep.Space().Version + 1)
	return np, nil
}
