package tc2d

import (
	"fmt"
	"math"

	"tc2d/internal/delta"
	"tc2d/internal/obs"
)

// ErrVertexRange marks an update batch naming a vertex id that cannot
// exist in any state of the graph: a negative endpoint, a removal of an id
// outside the current vertex space, or growth beyond Options.MaxVertices
// or the int32 id range. Edges naming ids at or above the current vertex
// count do NOT produce it — they grow the graph transparently. Test with
// errors.Is; the tcd daemon maps it to a 400.
var ErrVertexRange = delta.ErrVertexRange

// UpdateOp selects the kind of one update.
type UpdateOp = delta.Op

// Update operations.
const (
	// UpdateInsert adds the undirected edge (U,V); re-inserting an existing
	// edge is a counted no-op.
	UpdateInsert = delta.OpInsert
	// UpdateDelete removes the undirected edge (U,V); deleting a missing
	// edge is a counted no-op.
	UpdateDelete = delta.OpDelete
	// UpdateAddVertices grows the vertex space by U fresh ids (V unused);
	// the contiguous allocation is reported in UpdateResult.VertexBase.
	UpdateAddVertices = delta.OpAddVertices
	// UpdateRemoveVertex drops vertex U and all its incident edges as one
	// operation (V unused), with an exact triangle delta.
	UpdateRemoveVertex = delta.OpRemoveVertex
)

// EdgeUpdate is one mutation in original vertex ids: an edge insertion or
// deletion, a vertex-space growth, or a vertex removal (see the UpdateOp
// constants for the field conventions of the vertex ops).
type EdgeUpdate = delta.Update

// UpdateResult reports one applied batch: the effective insert/delete
// counts (redundant entries become Skipped* no-ops; Deleted includes the
// incident edges vertex removals dropped), the vertex-space accounting
// (AddedVertices, RemovedVertices, GrownTo, VertexBase), the exact
// triangle delta and maintained running total, the new edge and wedge
// totals, and the epoch's probe count. When the write scheduler
// coalesced several callers' batches into one epoch, Coalesced reports how
// many, the per-caller fields (Inserted/Deleted/Skipped*/RemovedVertices/
// VertexBase) stay per-caller, and the epoch-level fields (DeltaTriangles,
// AddedVertices, GrownTo, Probes) describe the shared epoch.
// PreOps is 0 for a pure delta apply; it is nonzero only when the drain
// pushed the cluster over its staleness threshold and a rebuild ran
// (Rebuilt is then set).
type UpdateResult = delta.Result

// ApplyUpdates applies a batch of updates to the resident graph and
// maintains the triangle, edge and wedge counts exactly — no preprocessing
// work is repeated. The batch is validated first: self loops and exact
// duplicates are tolerated (dropped or collapsed), but a batch that both
// inserts and deletes the same edge, or removes a vertex and also updates
// one of its edges, is rejected. Insertions of edges already present and
// deletions of absent edges are counted as skips, so at-least-once
// delivery of an update stream is safe.
//
// The vertex space is elastic: an edge naming an id at or beyond the
// current vertex count is not an error — the batch grows the space to
// admit it (new ids land in an overflow region with identity labels that
// the next rebuild folds into a clean cyclic layout). Only genuinely
// malformed ids (negative endpoints, removals of ids that do not exist,
// growth beyond Options.MaxVertices) fail, with ErrVertexRange. Batches
// may also carry explicit UpdateAddVertices / UpdateRemoveVertex entries;
// the AddVertices and RemoveVertices methods are convenience wrappers.
//
// Only triangles incident to batch edges are (re)counted: each is
// discovered once per batch edge it contains and weighted by that
// multiplicity, so inserts add and deletes subtract exactly — the running
// count always equals what a from-scratch count of the mutated graph
// would return.
//
// Concurrent callers do not serialize into one epoch each: requests
// enqueue into the cluster's write queue, and the scheduler coalesces
// every batch pending at drain time into a single canonicalized
// super-batch applied in one exclusive write epoch, demultiplexing the
// per-caller skip/result accounting afterwards (see UpdateResult.Coalesced
// and the scheduler notes in scheduler.go). Batches from different callers
// that conflict (one inserts an edge another deletes, or one removes a
// vertex another's edges touch) are never merged; the later one waits for
// the next drain. When the cumulative number of applied updates exceeds a
// quarter of the edge count at the last build — or the overflow region a
// quarter of the base vertex space — the layout is considered stale and
// the blocks are rebuilt inside the same world — at most once per drain;
// the result's Rebuilt flag reports this.
func (cl *Cluster) ApplyUpdates(batch []EdgeUpdate) (*UpdateResult, error) {
	return cl.enqueueWrite(batch)
}

// ApplyUpdatesTraced is ApplyUpdates with a per-request execution trace: the
// span tree brackets the queue wait (the coalescing window), the shared
// write epoch, the WAL append that makes the batch durable, and — when the
// drain crossed the staleness threshold — the rebuild. Spans describing
// shared work (the epoch, the WAL) appear in every traced request the drain
// coalesced. The trace is returned even when the update fails.
func (cl *Cluster) ApplyUpdatesTraced(batch []EdgeUpdate) (*UpdateResult, *obs.Trace, error) {
	tr := obs.NewTrace("update")
	res, err := cl.enqueueWriteTraced(batch, tr)
	tr.End()
	return res, tr, err
}

// AddVertices grows the vertex space by n fresh ids and returns their
// contiguous allocation through UpdateResult.VertexBase (the new ids are
// VertexBase, …, VertexBase+n-1). The ids start above every id referenced
// by any batch coalesced into the same write epoch, so concurrent callers
// always receive disjoint fresh ranges. The request goes through the write
// scheduler as an ordinary coalescible write-queue entry.
func (cl *Cluster) AddVertices(n int) (*UpdateResult, error) {
	if n <= 0 || int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("tc2d: AddVertices(%d): count must be in [1, %d]", n, math.MaxInt32)
	}
	return cl.enqueueWrite([]EdgeUpdate{{U: int32(n), Op: UpdateAddVertices}})
}

// RemoveVertices drops the given vertices and all their incident edges as
// one batch, maintaining the triangle, edge and wedge counts exactly via
// the incident-triangle delta machinery. The ids themselves stay in the
// vertex space (isolated — a later edge touching one simply revives it);
// ids outside the current space fail with ErrVertexRange. Goes through the
// write scheduler as a coalescible write-queue entry.
func (cl *Cluster) RemoveVertices(ids []int32) (*UpdateResult, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("tc2d: RemoveVertices needs at least one id")
	}
	batch := make([]EdgeUpdate, len(ids))
	for i, id := range ids {
		batch[i] = EdgeUpdate{U: id, Op: UpdateRemoveVertex}
	}
	return cl.enqueueWrite(batch)
}

// Rebuild refreshes the resident layout inside the same world and epoch
// machinery. When the degree-dirty set — the labels whose degree changed
// since the last build — is at most a tenth of the vertex count, the
// rebuild runs incrementally: only that set is re-sorted (permuted among
// its own label slots), only its moved rows are spliced between blocks,
// and the retained relabel permutation is reused for every untouched
// vertex, so the cost is proportional to churn rather than graph size.
// Larger churn runs the full preprocessing pipeline: fresh degree
// ordering, fresh 2D blocks, same grid schedule, and an update-routing map
// composed back into original-vertex space. Either way counts are
// unchanged — only the layout is refreshed — and the overflow region of
// vertices added since the last build is folded into the clean cyclic
// layout (BaseN == N again). The write scheduler triggers this
// automatically once applied updates or overflow growth make the layout
// stale (see ApplyUpdates); Rebuild forces it, waiting out in-flight
// queries and write epochs first.
func (cl *Cluster) Rebuild() error {
	cl.sched.gate.Lock()
	defer cl.sched.gate.Unlock()
	if cl.closed.Load() {
		return ErrClosed
	}
	return cl.rebuildLocked()
}

// rebuildLocked refreshes the resident layout, choosing the incremental
// pass when the degree-dirty set is small enough and the full pipeline
// otherwise. sched.gate is held exclusively.
func (cl *Cluster) rebuildLocked() error {
	meta := cl.metaNow()
	if float64(meta.DegreeDirty) <= incrementalFraction*float64(meta.N) {
		return cl.rebuildIncrementalLocked()
	}
	return cl.rebuildFullLocked()
}

// rebuildIncrementalLocked re-sorts only the degree-dirty labels, mutating
// the resident state in place. sched.gate is held exclusively.
func (cl *Cluster) rebuildIncrementalLocked() error {
	rep, err := cl.run0(opRebuildInc, nil)
	if err != nil {
		return err
	}
	st := rep.Stats
	if st == nil {
		return fmt.Errorf("tc2d: incremental rebuild epoch returned no stats")
	}
	cl.appliedEdges = 0
	cl.baseM = cl.metaNow().M
	cl.rebuilds.Add(1)
	cl.incRebuilds.Add(1)
	// Saved ops versus the last full pipeline run over this graph; the
	// baseline is 0 (no claimed saving) on a restored cluster until a full
	// rebuild re-establishes it.
	saved := cl.fullPreOps - st.Ops
	cl.metrics.observeRebuild("incremental", saved, st.Moved)
	cl.syncGraphMetrics()
	return nil
}

// rebuildFullLocked swaps the resident state for a freshly prepared one.
// sched.gate is held exclusively.
func (cl *Cluster) rebuildFullLocked() error {
	if _, err := cl.run(opRebuildFull, &wireBuild{Track: cl.persist != nil}); err != nil {
		return err
	}
	meta := cl.metaNow()
	cl.appliedEdges = 0
	cl.baseM = meta.M
	cl.fullPreOps = meta.PreOps
	cl.rebuilds.Add(1)
	cl.metrics.observeRebuild("full", 0, 0)
	// Delta snapshots cannot express the swap: the next one must be a base.
	if cl.persist != nil {
		cl.persist.needBase()
	}
	cl.syncGraphMetrics()
	return nil
}
