package core

// Churn tracking for the two incremental maintenance paths.
//
// Two independent dirty sets live on a Prepared value:
//
//   - degreeDirty: the labels whose degree changed since the last rebuild
//     fold. The delta subsystem marks it from the (replicated) affected-set
//     of every applied batch, so it is identical on all ranks and tells the
//     incremental rebuild exactly which degree classes need re-sorting.
//     Rebuilds — full or incremental — reset it. It is part of the durable
//     state (serialized in the prepared blob) so a restored cluster keeps
//     rebuilding incrementally.
//
//   - snap (snapDirty): the resident rows/columns/label slots this rank has
//     rewritten since the last committed snapshot. Splice marks the exact
//     block rows it touches (it already routes every pair to its owning
//     structures); the incremental rebuild's label fold marks rewritten
//     label slots. The snapshot layer drains the set into a delta blob and
//     resets it after a successful commit. Tracking is off (nil) unless the
//     durability layer enables it, so non-durable clusters pay nothing.
//
// Like everything on the write path these sets are mutated only inside
// exclusive write epochs (or by the snapshot writer while it holds the
// scheduler gate), never concurrently with counting reads.

import "slices"

// snapDirty records which parts of the resident state changed since the
// last committed snapshot, keyed the way the blocks are stored so the delta
// encoder can serialize exactly the touched rows.
type snapDirty struct {
	// Dirty U rows and L columns per operand class, indexed like blocks.u
	// and blocks.l; a nil set means no splice touched the class.
	u, l  []map[int32]struct{}
	tRows map[int32]struct{} // dirty task rows
	slots map[int32]struct{} // rewritten label slots
}

func newSnapDirty(blk *blocks) *snapDirty {
	return &snapDirty{
		u:     make([]map[int32]struct{}, len(blk.u)),
		l:     make([]map[int32]struct{}, len(blk.l)),
		tRows: make(map[int32]struct{}),
		slots: make(map[int32]struct{}),
	}
}

func markRows(set map[int32]struct{}, ed *classEdits) {
	for _, key := range ed.ins {
		set[editRow(key)] = struct{}{}
	}
	for _, key := range ed.del {
		set[editRow(key)] = struct{}{}
	}
}

// dirtyRows returns the dirty set of class index i, creating it.
func dirtyRows(sets []map[int32]struct{}, i int) map[int32]struct{} {
	if sets[i] == nil {
		sets[i] = make(map[int32]struct{})
	}
	return sets[i]
}

// EnableSnapshotTracking turns on since-last-snapshot dirty tracking. The
// durability layer calls it right after a build or restore, before any
// splice it may later want to delta-encode. Idempotent.
func (p *Prepared) EnableSnapshotTracking() {
	if p.snap == nil {
		p.snap = newSnapDirty(p.blk)
	}
}

// ResetSnapshotDirty clears the since-last-snapshot dirty set. The snapshot
// layer calls it after the delta (or base) blob it drained the set into has
// been durably committed.
func (p *Prepared) ResetSnapshotDirty() {
	if p.snap != nil {
		p.snap = newSnapDirty(p.blk)
	}
}

// MarkLabelSlot records that local label slot i was rewritten in place (the
// incremental rebuild's fold does this when it re-sorts degree classes), so
// the next delta snapshot carries the new value.
func (p *Prepared) MarkLabelSlot(i int32) {
	if p.snap != nil {
		p.snap.slots[i] = struct{}{}
	}
}

// MarkDegreeDirty records labels whose degree changed since the last
// rebuild. The delta subsystem calls it with each batch's replicated
// affected-vertex set, so every rank accumulates the identical set.
func (p *Prepared) MarkDegreeDirty(labels []int32) {
	if len(labels) == 0 {
		return
	}
	if p.degreeDirty == nil {
		p.degreeDirty = make(map[int32]struct{}, len(labels))
	}
	for _, w := range labels {
		p.degreeDirty[w] = struct{}{}
	}
}

// DegreeDirty returns the sorted set of labels whose degree changed since
// the last rebuild. The slice is freshly allocated.
func (p *Prepared) DegreeDirty() []int32 { return sortedI32Set(p.degreeDirty) }

// DegreeDirtyCount returns the size of the degree-dirty set — the churn
// signal the cluster's rebuild policy compares against a fixed share of
// the vertex count to pick the rebuild mode.
func (p *Prepared) DegreeDirtyCount() int { return len(p.degreeDirty) }

// ResetDegreeDirty clears the degree-dirty set; both rebuild modes call it
// once the layout is fresh again.
func (p *Prepared) ResetDegreeDirty() { p.degreeDirty = nil }

// SetDegreeDirty replaces the degree-dirty set wholesale (decode path).
func (p *Prepared) SetDegreeDirty(labels []int32) {
	p.degreeDirty = nil
	p.MarkDegreeDirty(labels)
}

// SetPreOps overwrites the preprocessing-operation count the state reports.
// The incremental rebuild sets it to the operations the partial pass
// actually performed, so PreOps keeps meaning "what the last rebuild cost"
// in both modes.
func (p *Prepared) SetPreOps(ops int64) { p.preOps = ops }

// FoldOverflow declares the current label map complete over the whole id
// space again: BaseN == N. The incremental rebuild calls it after rewriting
// the labels array over the full space (the full pipeline gets the same
// effect by building a fresh state).
func (p *Prepared) FoldOverflow() { p.baseN = p.n }

// sortedI32Set flattens a set to a sorted slice.
func sortedI32Set(set map[int32]struct{}) []int32 {
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
