package delta

// Incremental rebuild: restore the degree-ordered layout at a cost
// proportional to churn instead of graph size. The full pipeline
// (rebuild.go) re-sorts every vertex, rebuilds every block and
// redistributes the whole graph; but after a small update window only the
// degree-dirty set — the labels whose degree changed since the last fold,
// tracked by Apply — can be out of place. RebuildIncremental re-sorts
// exactly that set, permuting its members among their OWN label slots (so
// every untouched vertex keeps its label and none of its block rows move),
// splices the moved rows through the ordinary exact-routing write path, and
// folds the overflow region by rewriting the retained label map over the
// full id space — a purely local pass, because cyclic slot i of rank r is
// id r + p·i under any space size.
//
// The result is a valid fold: BaseN == N, the space version advances, the
// degree-dirty set resets, and PreOps reports what the partial pass
// actually cost. The layout differs from what the full pipeline would
// produce — untouched vertices keep their old relative order, so vertices
// whose degree crossed an untouched vertex's degree stay slightly out of
// global order — but degree order is a balance heuristic, not a
// correctness requirement (the orientation only needs a total order), and
// the differential suite pins exact count agreement.
//
// Like Apply and Rebuild this mutates resident state and must run as an
// exclusive write epoch.

import (
	"cmp"
	"fmt"
	"slices"

	"tc2d/internal/core"
	"tc2d/internal/mpi"
)

// RebuildStats reports what an incremental rebuild did. All fields are
// identical on every rank.
type RebuildStats struct {
	// Dirty is the size of the degree-dirty set the pass consumed.
	Dirty int
	// Moved counts labels whose slot changed.
	Moved int
	// MovedEntries counts adjacency entries of moved rows — the data volume
	// the pass rewrote, the analogue of the full pipeline redistributing
	// every entry.
	MovedEntries int64
	// Ops is the preprocessing-operation count of the pass (degree
	// recomputation + row gathers + splice edits), the number PreOps
	// reports afterwards. Compare against the full pipeline's PreOps to
	// measure the saving.
	Ops int64
}

// RebuildIncremental folds the resident state in place: re-sorts the
// degree-dirty label set among its own slots, splices the moved rows, and
// rewrites the retained label map over the grown id space so BaseN == N
// again. Every rank must call it collectively inside a write epoch. The
// Prepared value is mutated in place — no replacement state is built.
func RebuildIncremental(c *mpi.Comm, prep *core.Prepared) (*RebuildStats, error) {
	p := c.Size()
	r := c.Rank()
	n := prep.N()
	qr, qc, _ := prep.GridShape()
	x := r / qc

	// The dirty set is replicated (Apply marks it from allreduced affected
	// sets), so every rank derives the identical plan.
	dirty := prep.DegreeDirty()

	// Current degrees of the dirty labels: each grid row's ranks hold
	// disjoint column-class slices, so one sum-allreduce completes them.
	deg := make([]int64, len(dirty))
	for i, w := range dirty {
		if int(w)%qr == x {
			deg[i] = int64(prep.AdjRow(w).Len())
		}
	}
	if len(deg) > 0 {
		deg = c.AllreduceInt64s(deg, mpi.OpSum)
	}

	// Re-sort the dirty set among its own slots: order by (degree, label)
	// — the pipeline's non-decreasing-degree rule — and assign to the
	// set's label values ascending. Identity assignments drop out; the
	// rest form the injective remap π.
	order := make([]int, len(dirty))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(deg[a], deg[b]); c != 0 {
			return c
		}
		return cmp.Compare(dirty[a], dirty[b])
	})
	remap := make(map[int32]int32)
	for pos, oi := range order {
		if dirty[oi] != dirty[pos] {
			remap[dirty[oi]] = dirty[pos]
		}
	}
	st := &RebuildStats{Dirty: len(dirty), Moved: len(remap)}
	var moved []int32 // ascending — dirty is sorted
	for i, w := range dirty {
		if _, ok := remap[w]; ok {
			moved = append(moved, w)
			st.MovedEntries += deg[i]
		}
	}

	// Physically move the rows: gather the full adjacency of every moved
	// label (replicated, like Apply's removal expansion), turn each old
	// incident edge into a delete and its π-image into an insert, and
	// splice. Pairs whose image equals an existing old pair cancel — π is
	// injective, so any insert colliding with a pre-splice edge names an
	// edge that is itself incident to a moved label and therefore in the
	// delete set.
	var ins, dels [][2]int32
	if len(moved) > 0 {
		adjOf := gatherRows(c, prep, moved)
		img := func(w int32) int32 {
			if nw, ok := remap[w]; ok {
				return nw
			}
			return w
		}
		delMap := make(map[int64][2]int32)
		insMap := make(map[int64][2]int32)
		for k, a := range moved {
			for _, u := range adjOf[k] {
				key := packEdge(a, u)
				if _, dup := delMap[key]; dup {
					continue
				}
				la, lb := a, u
				if la > lb {
					la, lb = lb, la
				}
				delMap[key] = [2]int32{la, lb}
				na, nu := img(a), img(u)
				if na > nu {
					na, nu = nu, na
				}
				insMap[packEdge(na, nu)] = [2]int32{na, nu}
			}
		}
		for key := range insMap {
			if _, ok := delMap[key]; ok {
				delete(delMap, key)
				delete(insMap, key)
			}
		}
		for _, e := range delMap {
			dels = append(dels, e)
		}
		for _, e := range insMap {
			ins = append(ins, e)
		}
		if len(ins) != len(dels) {
			return nil, fmt.Errorf("delta: incremental rebuild produced %d inserts vs %d deletes — permutation not edge-preserving", len(ins), len(dels))
		}
		prep.SetMaxURow(c.AllreduceInt64(prep.Splice(r, ins, dels), mpi.OpMax))
	}

	// Fold the label map over the full space. Cyclic slot i of rank r is id
	// r + p·i whatever the space size, so the rewrite is purely local: old
	// slots keep (or remap) their value, slots admitted from the overflow
	// region start from their identity label. Rewritten slots are marked so
	// the next delta snapshot carries them.
	_, oldLabels := prep.Labels()
	oldLen := len(oldLabels)
	offsets := core.CyclicOffsets(n, p)
	nloc := 0
	if int64(r) < n {
		nloc = int((n - int64(r) + int64(p) - 1) / int64(p))
	}
	newLabels := make([]int32, nloc)
	for i := 0; i < nloc; i++ {
		id := int32(int64(r) + int64(p)*int64(i))
		old := id
		if i < oldLen {
			old = oldLabels[i]
		}
		nl := old
		if nw, ok := remap[old]; ok {
			nl = nw
		}
		newLabels[i] = nl
		if i < oldLen {
			if nl != oldLabels[i] {
				prep.MarkLabelSlot(int32(i))
			}
		} else if nl != id {
			// Extended slots default to identity on the decode side;
			// only non-identity values need to travel.
			prep.MarkLabelSlot(int32(i))
		}
	}
	prep.SetLabels(int32(offsets[r]), newLabels)
	prep.FoldOverflow()
	prep.SetSpaceVersion(prep.Space().Version + 1)
	prep.ResetDegreeDirty()

	// Deterministic operation count: one degree probe per dirty label, the
	// gathered row entries, and two edit applications per splice pair.
	st.Ops = int64(len(dirty)) + st.MovedEntries + 2*int64(len(ins)+len(dels))
	prep.SetPreOps(st.Ops)
	return st, nil
}
