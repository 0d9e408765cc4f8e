package tc2d

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tc2d/internal/delta"
	"tc2d/internal/obs"
)

// The epoch scheduler: the admission layer between the Cluster's public
// methods and the world's epochs.
//
//   - Reads (Count, Transitivity) take the gate shared and run as
//     concurrent World.RunRead epochs; a query that arrives while another's
//     epoch is in flight joins that readFlight and shares its result.
//   - Writes (ApplyUpdates, AddVertices, RemoveVertices) enqueue a
//     writeReq and block; a single resident writer goroutine (writeLoop)
//     drains the queue, coalesces every pending batch into one
//     canonicalized super-batch, takes the gate exclusively, runs ONE
//     write epoch, demultiplexes per-caller results, and triggers at most
//     one staleness rebuild per drain.
//
// The coalescing window is the time the writer spends waiting for the
// exclusive gate (i.e. for in-flight read epochs and earlier write work):
// the longer the reads, the more write batches amortize into one epoch.

// readFlight is one in-flight counting epoch that concurrent queries share.
type readFlight struct {
	res  *Result
	err  error
	done chan struct{}
}

// writeReq is one write-path call waiting for a write epoch. canon, loops
// and err are filled during coalescing; res when the epoch that carried
// the request completes.
type writeReq struct {
	batch []EdgeUpdate
	canon []EdgeUpdate
	loops int
	res   *UpdateResult
	err   error
	done  chan struct{}

	// Observability: enqueued feeds the queue-wait histogram; trace is the
	// caller's per-request trace (ApplyUpdatesTraced), whose queueSpan stays
	// open from enqueue until a drain accepts the request.
	enqueued  time.Time
	trace     *obs.Trace
	queueSpan *obs.Span
}

func (r *writeReq) finish() {
	r.queueSpan.End()
	close(r.done)
}

// scheduler holds the admission state of one Cluster.
type scheduler struct {
	// gate is the RWMutex-style admission lock: queries share it, write
	// epochs, rebuilds and Close take it exclusively.
	gate sync.RWMutex

	// rmu guards the in-flight read slot.
	rmu    sync.Mutex
	flight *readFlight

	// mu guards the write queue and the closing flag.
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*writeReq
	closing   bool
	drainedCh chan struct{} // closed when writeLoop has fully drained and exited

	depth    atomic.Int64 // write callers enqueued or in flight
	absorbed atomic.Int64 // caller batches the write epochs carried
}

func newScheduler() *scheduler {
	s := &scheduler{drainedCh: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueueWrite hands one caller batch to the writer goroutine and blocks
// until the carrying write epoch (or a canonicalization failure) resolves
// it.
func (cl *Cluster) enqueueWrite(batch []EdgeUpdate) (*UpdateResult, error) {
	return cl.enqueueWriteTraced(batch, nil)
}

// enqueueWriteTraced is enqueueWrite carrying an optional per-request trace
// whose spans the write path fills in (queue wait, shared epoch, WAL).
func (cl *Cluster) enqueueWriteTraced(batch []EdgeUpdate, tr *obs.Trace) (*UpdateResult, error) {
	if cl.readOnly {
		return nil, ErrFollowerReadOnly
	}
	s := cl.sched
	start := time.Now()
	req := &writeReq{batch: batch, done: make(chan struct{}), enqueued: start, trace: tr}
	req.queueSpan = tr.Span().StartChild("queue_wait")
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	cl.metrics.queueDepth.Set(float64(s.depth.Add(1)))
	s.queue = append(s.queue, req)
	s.cond.Signal()
	s.mu.Unlock()
	<-req.done
	cl.metrics.queueDepth.Set(float64(s.depth.Add(-1)))
	cl.metrics.observeOp("update", start, req.err)
	return req.res, req.err
}

// writeLoop is the Cluster's resident writer goroutine. It exits only when
// Close has been requested and every accepted request has resolved.
func (cl *Cluster) writeLoop() {
	s := cl.sched
	var pending []*writeReq
	for {
		s.mu.Lock()
		for len(pending) == 0 && len(s.queue) == 0 && !s.closing {
			s.cond.Wait()
		}
		pending = append(pending, s.queue...)
		s.queue = nil
		closing := s.closing
		s.mu.Unlock()
		if len(pending) == 0 && closing {
			close(s.drainedCh)
			return
		}
		s.gate.Lock()
		// The gate wait is the coalescing window: pick up everything that
		// queued while read epochs (or the previous drain) held us out.
		s.mu.Lock()
		pending = append(pending, s.queue...)
		s.queue = nil
		s.mu.Unlock()
		pending = cl.drainOnce(pending)
		// The snapshot trigger is evaluated inside the exclusive window
		// (baseM and the WAL counters are stable here) but the snapshot
		// itself runs under the SHARED gate below, like an explicit
		// Snapshot call: queries keep flowing while the ranks encode.
		autoSnap := cl.persist != nil && cl.autoSnapshotDue()
		s.gate.Unlock()
		if autoSnap {
			s.gate.RLock()
			if !cl.closed.Load() {
				cl.snapshotShared(nil)
			}
			s.gate.RUnlock()
		}
	}
}

// mergedEntry is one canonical operation of a super-batch together with
// the FIFO list of pending-request indices that contributed it. Edge and
// removal entries merge across requests; OpAddVertices entries never merge
// (each keeps its own allocation) and stay in FIFO order.
type mergedEntry struct {
	upd  delta.Update
	reqs []int
}

// opClass orders super-batch entries: explicit growth first (FIFO, so
// allocations are deterministic), then removals, then edges — the
// canonical order delta.Apply expects.
func opClass(op delta.Op) int {
	switch op {
	case delta.OpAddVertices:
		return 0
	case delta.OpRemoveVertex:
		return 1
	}
	return 2
}

// coalesce canonicalizes each pending request and merges them, in FIFO
// order, into one conflict-free super-batch. Requests whose own batch is
// invalid (or would grow the space beyond Options.MaxVertices) are
// resolved immediately with their error. A request that conflicts with an
// earlier pending one — insert vs delete of the same edge, or a vertex
// removal crossing another request's edges in either direction — ends the
// merge: it and everything behind it stay pending for the next drain,
// preserving FIFO semantics.
func (cl *Cluster) coalesce(pending []*writeReq) (accepted []*writeReq, entries []mergedEntry, deferred []*writeReq) {
	n := cl.metaNow().N
	edgeIndex := make(map[[2]int32]int)
	remIndex := make(map[int32]int)    // ids accepted removals drop → their entry
	accTouched := make(map[int32]bool) // endpoints of accepted edge entries
	// Growth projection of the drain so far, mirroring delta.Apply's
	// admission arithmetic exactly: edge ids raise the cursor first, then
	// every explicit allocation lands on top.
	maxEdge := n         // max(n, largest edge endpoint + 1) over accepted entries
	addTotal := int64(0) // explicit growth accepted so far
	for qi := 0; qi < len(pending); qi++ {
		req := pending[qi]
		canon, loops, err := delta.Canonicalize(req.batch, n)
		if err != nil {
			req.err = err
			req.finish()
			continue
		}
		reqMaxEdge, reqAdds := maxEdge, int64(0)
		for _, u := range canon {
			switch u.Op {
			case delta.OpAddVertices:
				reqAdds += int64(u.U)
			case delta.OpInsert, delta.OpDelete:
				if e := int64(u.U) + 1; e > reqMaxEdge {
					reqMaxEdge = e
				}
				if e := int64(u.V) + 1; e > reqMaxEdge {
					reqMaxEdge = e
				}
			}
		}
		if cl.maxVertices > 0 && reqMaxEdge+addTotal+reqAdds > cl.maxVertices {
			req.err = fmt.Errorf("tc2d: batch would grow the vertex space to %d ids, beyond MaxVertices=%d: %w",
				reqMaxEdge+addTotal+reqAdds, cl.maxVertices, ErrVertexRange)
			req.finish()
			continue
		}
		conflict := false
		for _, u := range canon {
			switch u.Op {
			case delta.OpAddVertices:
			case delta.OpRemoveVertex:
				conflict = accTouched[u.U]
			default:
				if ei, ok := edgeIndex[[2]int32{u.U, u.V}]; ok && entries[ei].upd.Op != u.Op {
					conflict = true
				}
				_, remU := remIndex[u.U]
				_, remV := remIndex[u.V]
				conflict = conflict || remU || remV
			}
			if conflict {
				break
			}
		}
		if conflict {
			deferred = pending[qi:]
			break
		}
		req.canon, req.loops = canon, loops
		cl.metrics.queueWait.Observe(time.Since(req.enqueued).Seconds())
		req.queueSpan.End()
		maxEdge, addTotal = reqMaxEdge, addTotal+reqAdds
		ai := len(accepted)
		// The cross-request indexes exist for the requests still to come:
		// the last one pending is merged but not indexed, so a drain of one
		// request (a lone writer) fills no map at all.
		index := qi+1 < len(pending)
		entries = slices.Grow(entries, len(canon))
		// One array holds the first-contributor lists of all this request's
		// entries, each capped at its own element: a later request joining
		// an entry appends into a copy, not into its neighbour.
		first := make([]int, len(canon))
		for j, u := range canon {
			first[j] = ai
			own := mergedEntry{upd: u, reqs: first[j : j+1 : j+1]}
			switch u.Op {
			case delta.OpAddVertices:
				entries = append(entries, own)
			case delta.OpRemoveVertex:
				if ei, ok := remIndex[u.U]; ok {
					entries[ei].reqs = append(entries[ei].reqs, ai)
					continue
				}
				if index {
					remIndex[u.U] = len(entries)
				}
				entries = append(entries, own)
			default:
				key := [2]int32{u.U, u.V}
				if ei, ok := edgeIndex[key]; ok {
					entries[ei].reqs = append(entries[ei].reqs, ai)
					continue
				}
				if index {
					accTouched[u.U], accTouched[u.V] = true, true
					edgeIndex[key] = len(entries)
				}
				entries = append(entries, own)
			}
		}
		accepted = append(accepted, req)
	}
	slices.SortStableFunc(entries, func(a, b mergedEntry) int {
		ca, cb := opClass(a.upd.Op), opClass(b.upd.Op)
		if ca != cb || ca == 0 { // growth entries keep their FIFO allocation order
			return cmp.Compare(ca, cb)
		}
		if c := cmp.Compare(a.upd.U, b.upd.U); c != 0 {
			return c
		}
		return cmp.Compare(a.upd.V, b.upd.V)
	})
	return accepted, entries, deferred
}

// drainOnce coalesces the pending requests, runs one write epoch over the
// super-batch, demultiplexes the results, and handles staleness — at most
// one rebuild per drain. It returns the requests deferred by a cross-batch
// conflict (processed by the caller's next iteration). sched.gate is held
// exclusively.
func (cl *Cluster) drainOnce(pending []*writeReq) []*writeReq {
	accepted, entries, deferred := cl.coalesce(pending)
	cl.metrics.deferred.Add(float64(len(deferred)))
	if len(accepted) == 0 {
		return deferred
	}
	cl.applyMerged(accepted, entries)
	return deferred
}

// spanAll opens one child span named name on every traced request of the
// drain and returns a closure ending them all — several callers' traces can
// bracket the same shared write-path work.
func spanAll(accepted []*writeReq, name string) func() {
	var spans []*obs.Span
	for _, req := range accepted {
		if req.trace != nil {
			spans = append(spans, req.trace.Span().StartChild(name))
		}
	}
	if len(spans) == 0 {
		return func() {}
	}
	return func() {
		for _, s := range spans {
			s.End()
		}
	}
}

// applyEpoch runs one batch through the apply op as an exclusive write epoch.
// It touches no cluster counter: a live write, a WAL replay and a follower
// apply commit the result (commitApply), a replay onto recovered workers
// must not. sched.gate is held exclusively, or the cluster is unpublished.
func (cl *Cluster) applyEpoch(batch []delta.Update) (*delta.Result, error) {
	rep, err := cl.run0(opApply, batch)
	if err != nil {
		return nil, err
	}
	if rep.Apply == nil {
		return nil, fmt.Errorf("tc2d: apply epoch returned no result")
	}
	return rep.Apply, nil
}

// commitApply folds one applied batch into the maintained triangle total
// (once a base count exists) and the staleness counter, and returns the
// batch's effective edge mutations.
func (cl *Cluster) commitApply(res *delta.Result) int64 {
	if cl.lastTri.Load() >= 0 {
		cl.lastTri.Add(res.DeltaTriangles)
	}
	eff := int64(res.Inserted + res.Deleted)
	cl.appliedEdges += eff
	return eff
}

// stale reports whether the layout is due for a rebuild. Both edge churn and
// vertex-space overflow count — an overflow region past the threshold means
// too many labels sit outside the degree order.
func (cl *Cluster) stale() bool {
	meta := cl.metaNow()
	return float64(cl.appliedEdges) > rebuildFraction*float64(cl.baseM) ||
		float64(meta.OverflowN) > rebuildFraction*float64(meta.BaseN)
}

// applyMerged runs the one write epoch of a drain and resolves every
// accepted request. sched.gate is held exclusively.
func (cl *Cluster) applyMerged(accepted []*writeReq, entries []mergedEntry) {
	failAll := func(err error) {
		for _, req := range accepted {
			req.err = err
			req.finish()
		}
	}
	// A retired persister (earlier WAL failure) must reject writes BEFORE
	// the epoch runs: applying them would mutate the resident graph while
	// reporting an error, silently widening the gap between the in-memory
	// and durable states.
	if cl.persist != nil {
		if perr := cl.persist.brokenErr(); perr != nil {
			failAll(perr)
			return
		}
	}
	// Delta maintenance needs an exact base count.
	if cl.lastTri.Load() < 0 {
		endBase := spanAll(accepted, "base_count")
		_, err := cl.countEpoch(nil)
		endBase()
		if err != nil {
			failAll(fmt.Errorf("tc2d: base count before update epoch: %w", err))
			return
		}
	}
	super := make([]delta.Update, len(entries))
	for i, e := range entries {
		super[i] = e.upd
	}
	epochStart := time.Now()
	endEpoch := spanAll(accepted, "write_epoch")
	epochRes, err := cl.applyEpoch(super)
	endEpoch()
	if err != nil {
		failAll(err)
		return
	}
	cl.sched.absorbed.Add(int64(len(accepted)))
	cl.updates.Add(int64(len(accepted)))
	cl.metrics.writeEpochs.Inc()
	cl.metrics.writeEpochSec.Observe(time.Since(epochStart).Seconds())
	cl.metrics.absorbed.Add(float64(len(accepted)))
	cl.metrics.coalesceSize.Observe(float64(len(accepted)))
	effEdges := cl.commitApply(epochRes)
	total := cl.lastTri.Load()
	cl.syncGraphMetrics()

	// Durability barrier: the committed super-batch must be in the WAL
	// before any caller is acknowledged, so an acked update survives a
	// crash. An append failure leaves the in-memory state ahead of the
	// durable state; the callers are failed (their batch DID apply, but its
	// durability cannot be promised) and the persister retires itself.
	if cl.persist != nil {
		endWAL := spanAll(accepted, "wal_append")
		perr := cl.logCommitted(super, effEdges)
		endWAL()
		if perr != nil {
			failAll(perr)
			return
		}
	}

	// Demultiplex: each caller gets the shared epoch-level totals plus its
	// own effective/skip and vertex-space accounting. A duplicate edge (or
	// removal) across callers is effective for its first (FIFO)
	// contributor and a skip (or drop-free removal) for the rest — exactly
	// what sequential application would have reported. Growth entries are
	// never merged, so each caller reads its own allocation base.
	perReq := make([]*UpdateResult, len(accepted))
	for i, req := range accepted {
		r := *epochRes
		r.Effective, r.VertexBases, r.RemovalDrops = nil, nil, nil
		r.Inserted, r.Deleted, r.SkippedExisting, r.SkippedMissing = 0, 0, 0, 0
		r.RemovedVertices, r.VertexBase = 0, -1
		r.SkippedLoops = req.loops
		r.Triangles = total
		r.Coalesced = len(accepted)
		perReq[i] = &r
	}
	for i, e := range entries {
		switch e.upd.Op {
		case delta.OpAddVertices:
			r := perReq[e.reqs[0]]
			if r.VertexBase < 0 {
				r.VertexBase = epochRes.VertexBases[i]
			}
		case delta.OpRemoveVertex:
			for j, ri := range e.reqs {
				r := perReq[ri]
				r.RemovedVertices++
				if j == 0 {
					r.Deleted += int(epochRes.RemovalDrops[i])
				}
			}
		default:
			for j, ri := range e.reqs {
				r := perReq[ri]
				effective := epochRes.Effective[i] && j == 0
				switch {
				case e.upd.Op == delta.OpInsert && effective:
					r.Inserted++
				case e.upd.Op == delta.OpInsert:
					r.SkippedExisting++
				case effective:
					r.Deleted++
				default:
					r.SkippedMissing++
				}
			}
		}
	}

	// Staleness: at most one rebuild per drain, no matter how many batches
	// it coalesced.
	var rebuildErr error
	if cl.stale() {
		endRebuild := spanAll(accepted, "rebuild")
		err := cl.rebuildLocked()
		endRebuild()
		if err != nil {
			// The super-batch itself committed (counts are exact and
			// maintained); only the layout refresh failed. Hand each caller
			// its result alongside the error.
			rebuildErr = fmt.Errorf("tc2d: updates applied, but staleness rebuild failed: %w", err)
		} else {
			for _, r := range perReq {
				r.Rebuilt = true
				r.PreOps = cl.metaNow().PreOps
			}
		}
	}
	for i, req := range accepted {
		req.res = perReq[i]
		req.err = rebuildErr
		req.finish()
	}
}
