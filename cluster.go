package tc2d

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

// ErrClosed is the sentinel returned by operations on a closed Cluster.
var ErrClosed = errors.New("tc2d: cluster is closed")

// QueryOptions configures one query against a resident Cluster. It has no
// fields: everything that shapes a count (ranks, grid schedule, the paper's
// ⟨j,i,k⟩ enumeration rule) is fixed when the resident state is built, and
// recorded in its rank blobs. The paper's §7.3 ablation switches, the
// ⟨i,j,k⟩ rule among them, live in cmd/tcpaper and its modeled LogGP times
// in the one-shot Count; neither is part of the service.
type QueryOptions struct{}

// ClusterInfo is a snapshot of a resident cluster. M and Wedges track
// applied updates exactly (maintained incrementally by the write path), so
// a snapshot taken after ApplyUpdates describes the mutated graph.
type ClusterInfo struct {
	// N and M are the global vertex and undirected-edge counts. N is
	// elastic: ApplyUpdates batches naming new ids, and AddVertices, grow
	// it live.
	N, M int64
	// BaseN is the vertex count at the last build; ids in [BaseN, N) form
	// the overflow region (admitted since the last build, identity
	// labels). OverflowFraction is (N-BaseN)/N — the share of the id space
	// outside the degree-ordered layout; the next rebuild folds it to 0.
	// SpaceVersion counts vertex-space layout changes (grows and folds).
	BaseN            int64
	OverflowN        int64
	OverflowFraction float64
	SpaceVersion     int64
	// Wedges is the global wedge count Σ_v d(v)·(d(v)-1)/2.
	Wedges int64
	// Ranks is the SPMD world size.
	Ranks int
	// Queries is the number of completed Count queries; Updates the number
	// of applied update batches; Rebuilds how often staleness (or an
	// explicit Rebuild call) refreshed the resident layout.
	// IncrementalRebuilds is the subset of Rebuilds that ran the
	// churn-proportional incremental pass (only the degree-dirty labels
	// re-sorted, only their rows moved) instead of the full pipeline.
	Queries             int64
	Updates             int64
	Rebuilds            int64
	IncrementalRebuilds int64
	// Scheduler accounting. ReadEpochs counts the counting epochs run to
	// serve queries (internal epochs, like the write path's base count,
	// are excluded): concurrent identical queries share one epoch's
	// result, so Queries / ReadEpochs is the read-coalescing factor,
	// always ≥ 1 once a query has completed. WriteEpochs counts write
	// epochs, a follower's replicated applies included; it reads the
	// tc_sched_write_epochs_total series of Options.Metrics.
	// CoalescedBatches counts the caller batches they absorbed, so
	// CoalescedBatches / WriteEpochs is the write-coalescing factor.
	// QueueDepth is the number of ApplyUpdates callers currently enqueued
	// or in flight.
	ReadEpochs       int64
	WriteEpochs      int64
	CoalescedBatches int64
	QueueDepth       int64
	// MapTasks accumulates the intersection-pair counts of completed count
	// epochs.
	MapTasks int64
	// PreOps counts the adjacency-entry operations of the one-time
	// preprocessing that built the resident state. It is zero on a cluster
	// restored by OpenCluster: a restore decodes the resident blocks from
	// the snapshot and never re-runs the pipeline.
	PreOps int64
	// Persist reports the durability state (WAL sequence, snapshots,
	// replay); Persist.Enabled is false when Options.PersistDir was unset.
	Persist PersistInfo
	// Workers is the number of connected worker processes on a coordinator
	// cluster (0 on in-process clusters); Degraded reports whether such a
	// cluster is currently missing workers or mid-recovery.
	Workers  int
	Degraded bool
}

// Cluster is a resident distributed graph: the preprocessing pipeline
// (cyclic redistribution, degree relabeling, 2D block construction) runs
// exactly once at construction, and the resulting per-rank blocks then serve
// any number of counting queries and update batches. The SPMD world stays
// up between requests.
//
// All methods are safe for concurrent use, under a reader/writer epoch
// scheduler (see scheduler.go): Count and Transitivity admit concurrently
// (identical concurrent queries share one epoch's result), while
// ApplyUpdates calls enqueue into a write queue whose drains coalesce all
// pending batches into one exclusive write epoch. Close drains the write
// queue, waits out in-flight queries, and is idempotent; late callers get
// ErrClosed.
type Cluster struct {
	// eng runs the cluster's epoch ops (ops.go) wherever its ranks live: an
	// in-process world (localEngine) or worker processes over TCP
	// (remoteBackend). remote is eng again on coordinator clusters, nil
	// otherwise; only the identity accessors and worker recovery look at it.
	eng    engine
	remote *remoteBackend
	ranks  int

	// sched admits reads concurrently and writes exclusively; the resident
	// state behind eng only changes under sched.gate held exclusively and is
	// read under it held shared.
	sched *scheduler

	// meta caches the graph metadata of the newest rank-0 op reply.
	metaMu sync.Mutex
	meta   wireMeta

	queries     atomic.Int64
	readEpochs  atomic.Int64
	updates     atomic.Int64
	rebuilds    atomic.Int64
	incRebuilds atomic.Int64 // the subset of rebuilds that ran incrementally
	mapTasks    atomic.Int64 // intersection pairs of completed count epochs

	// readOnly marks a follower's cluster: the public write path rejects
	// with ErrFollowerReadOnly, and only the replication apply loop mutates
	// the resident state (under the exclusive gate, like any write).
	readOnly  bool
	lastTri   atomic.Int64 // maintained triangle count, -1 until first query
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// Write-path staleness state, touched only with sched.gate held
	// exclusively. maxVertices is immutable; fullPreOps is the operation
	// count of the last full pipeline run, the baseline incremental
	// rebuilds report savings against (0 on a restored cluster until its
	// first full rebuild).
	maxVertices  int64 // growth cap (0 = unbounded)
	baseM        int64 // edge count at the last build, staleness denominator
	appliedEdges int64 // effective updates applied since the last build
	fullPreOps   int64

	// persist is the durability state (snapshot directory + WAL); nil when
	// Options.PersistDir was unset. See persist.go.
	persist *persister

	// metrics holds the pre-resolved observability handles; the registry
	// behind them also receives the runtime's and kernel's series. See
	// metrics.go.
	metrics *clusterMetrics
}

// NewCluster builds a resident cluster over g: the graph is scattered to
// opt.Ranks ranks and preprocessed into the 2D block distribution once.
// Square rank counts use the Cannon schedule, other rank counts the SUMMA
// schedule; every rank is a goroutine of this process. The caller must
// Close the cluster.
func NewCluster(g *Graph, opt Options) (*Cluster, error) {
	return buildCluster(opt, (*resolvedOptions).newLocalEngine, &wireBuild{graph: g})
}

// NewClusterRMAT builds a resident cluster whose graph is generated in
// parallel on the ranks themselves (as the paper does for its g500 inputs),
// so no rank ever holds the full edge list.
func NewClusterRMAT(params RMATParams, scale, edgeFactor int, seed uint64, opt Options) (*Cluster, error) {
	rm := &wireRMAT{Params: params, Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
	return buildCluster(opt, (*resolvedOptions).newLocalEngine, &wireBuild{RMAT: rm})
}

// The write path's policy: three shares of the state at the last build,
// fixed for every cluster.
const (
	// rebuildFraction: once the effective updates applied since the last
	// build exceed this share of its edge count — or the overflow region
	// this share of its vertex count — the layout is stale and the write
	// path rebuilds it, at most once per drain.
	rebuildFraction = 0.25
	// incrementalFraction: a rebuild whose degree-dirty set is at most this
	// share of the vertex count runs incrementally; larger churn runs the
	// full pipeline.
	incrementalFraction = 0.1
	// snapshotFraction: once the WAL holds effective mutations beyond this
	// share of the edge count at the last build, the write path snapshots
	// a durable cluster and rotates the WAL, at most once per drain.
	snapshotFraction = 0.5
)

// resolvedOptions is Options validated once, with the cluster's metric
// handles resolved.
type resolvedOptions struct {
	Options
	metrics *clusterMetrics
}

func (o Options) resolve() (*resolvedOptions, error) {
	res := &resolvedOptions{Options: o}
	if o.MaxVertices < 0 {
		return nil, fmt.Errorf("tc2d: MaxVertices=%d must be non-negative", o.MaxVertices)
	}
	// Resident clusters are always observable: without a caller-provided
	// registry they get a private one, which the world (epoch/per-rank
	// series) and the rank store (kernels) publish into too.
	if res.Metrics == nil {
		res.Metrics = obs.NewRegistry()
	}
	res.metrics = newClusterMetrics(res.Metrics)
	return res, nil
}

// engine runs epoch ops on a cluster's ranks. run executes the named entry of
// the op table on every rank and returns the replies indexed by rank (nil
// where a rank stayed silent).
type engine interface {
	run(op string, args any) ([]*opReply, error)
	close() error
}

// localEngine hosts every rank as a goroutine of one in-process world; an op
// receives its typed args by pointer, nothing is serialized.
type localEngine struct {
	world *mpi.World
	store *rankStore
}

func (res *resolvedOptions) newLocalEngine(p int) (engine, error) {
	world := mpi.NewWorld(p, res.mpiConfig())
	return &localEngine{world: world, store: newRankStore(res.Metrics)}, nil
}

func (e *localEngine) run(name string, args any) ([]*opReply, error) {
	op := ops[name]
	epoch := e.world.Run
	if op.read {
		epoch = e.world.RunRead
	}
	results, err := epoch(func(c *mpi.Comm) (any, error) { return op.run(c, e.store, args) })
	if err != nil {
		return nil, err
	}
	replies := make([]*opReply, len(results))
	for r, v := range results {
		replies[r], _ = v.(*opReply)
	}
	return replies, nil
}

func (e *localEngine) close() error { return e.world.Close() }

// newClusterOn is the one place a Cluster value is made: an idle shell over
// eng, holding no resident state yet. The caller builds or restores through
// cl.run, fills the counters that come out of that, and calls start.
func newClusterOn(eng engine, res *resolvedOptions, ranks int) *Cluster {
	cl := &Cluster{
		eng:         eng,
		ranks:       ranks,
		sched:       newScheduler(),
		maxVertices: res.MaxVertices,
		metrics:     res.metrics,
	}
	cl.lastTri.Store(-1)
	if rb, ok := eng.(*remoteBackend); ok {
		cl.remote = rb
	}
	return cl
}

// start publishes the cluster: graph gauges current, writer goroutine up,
// and — on a coordinator — worker recovery able to find it. Until here a
// lost worker fails the constructor instead.
func (cl *Cluster) start() *Cluster {
	cl.syncGraphMetrics()
	go cl.writeLoop()
	if rb := cl.remote; rb != nil {
		rb.cl.Store(cl)
	}
	return cl
}

// buildCluster is the constructor behind NewCluster* and
// NewClusterCoordinator*: stand the engine up, run the build op, and — for
// durable clusters — publish the initial snapshot.
func buildCluster(opt Options, newEngine func(res *resolvedOptions, p int) (engine, error), build *wireBuild) (*Cluster, error) {
	p, err := opt.ranks()
	if err != nil {
		return nil, err
	}
	res, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(res, p)
	if err != nil {
		return nil, err
	}
	cl := newClusterOn(eng, res, p)
	build.Track = opt.PersistDir != ""
	if _, err := cl.run(opBuild, build); err != nil {
		eng.close()
		return nil, err
	}
	meta := cl.metaNow()
	cl.baseM, cl.fullPreOps = meta.M, meta.PreOps
	if opt.PersistDir != "" {
		if err := cl.initPersist(res); err != nil {
			eng.close()
			return nil, err
		}
	}
	return cl.start(), nil
}

// run executes one entry of the op table on every rank, wherever the ranks
// live, and refreshes the metadata cache from rank 0's reply. Every epoch the
// cluster runs goes through here. The caller holds sched.gate — exclusively
// unless the op is a read op — or has not published the cluster yet.
func (cl *Cluster) run(op string, args any) ([]*opReply, error) {
	replies, err := cl.eng.run(op, args)
	if err != nil {
		return nil, err
	}
	if rep := replies[0]; rep != nil && rep.Meta != nil {
		cl.metaMu.Lock()
		cl.meta = *rep.Meta
		cl.metaMu.Unlock()
	}
	return replies, nil
}

// run0 is run for ops whose answer is rank 0's reply.
func (cl *Cluster) run0(op string, args any) (*opReply, error) {
	replies, err := cl.run(op, args)
	if err != nil {
		return nil, err
	}
	if replies[0] == nil {
		return nil, fmt.Errorf("tc2d: %s epoch returned no reply", op)
	}
	return replies[0], nil
}

// Count answers one triangle counting query against the resident blocks. No
// preprocessing work is repeated: the returned Result has PreOps == 0. Its
// modeled times are zero too; only the one-shot Count and CountRMAT set
// them.
//
// Count admits concurrently: queries never wait on each other (they run as
// overlapping read epochs), only on write epochs. Concurrent queries share a
// single epoch's result — safe because the scheduler guarantees the resident
// state cannot change while any of the sharing callers is admitted.
func (cl *Cluster) Count(q QueryOptions) (*Result, error) {
	start := time.Now()
	cl.sched.gate.RLock()
	cl.metrics.admissionWait.Observe(time.Since(start).Seconds())
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	res, err := cl.countShared()
	cl.metrics.observeOp("count", start, err)
	if err != nil {
		return nil, err
	}
	cl.queries.Add(1)
	return res, nil
}

// CountTraced is Count with a per-query execution trace: the returned span
// tree brackets admission, the counting epoch, and inside it each rank's
// schedule — every Cannon/SUMMA step split into its communication (shift or
// broadcast) and kernel phases, each timed in wall-clock seconds. Traced
// queries run their own epoch (they never join a shared read flight), so
// the tree describes exactly this query's work. The trace is returned even
// when the count fails, truncated at the failure point.
func (cl *Cluster) CountTraced(q QueryOptions) (*Result, *obs.Trace, error) {
	tr := obs.NewTrace("count")
	defer tr.End()
	start := time.Now()
	adm := tr.Span().StartChild("admission")
	cl.sched.gate.RLock()
	adm.End()
	cl.metrics.admissionWait.Observe(time.Since(start).Seconds())
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return nil, tr, ErrClosed
	}
	es := tr.Span().StartChild("epoch")
	res, err := cl.countEpoch(es)
	es.End()
	cl.metrics.observeOp("count", start, err)
	if err != nil {
		return nil, tr, err
	}
	cl.queries.Add(1)
	cl.readEpochs.Add(1)
	return resultCopy(res), tr, nil
}

// countShared serves one query, joining the in-flight query's epoch when
// there is one. The caller holds sched.gate (shared or exclusive) and counts
// the query itself.
func (cl *Cluster) countShared() (*Result, error) {
	s := cl.sched
	s.rmu.Lock()
	if f := s.flight; f != nil {
		s.rmu.Unlock()
		cl.metrics.flightShared.Inc()
		<-f.done
		return resultCopy(f.res), f.err
	}
	f := &readFlight{done: make(chan struct{})}
	s.flight = f
	s.rmu.Unlock()

	f.res, f.err = cl.countEpoch(nil)
	if f.err == nil {
		cl.readEpochs.Add(1)
	}
	s.rmu.Lock()
	s.flight = nil
	s.rmu.Unlock()
	close(f.done)
	return resultCopy(f.res), f.err
}

// countEpoch runs one counting epoch as a read epoch. The caller holds
// sched.gate. A non-nil parent span collects one per-rank child span tree
// (see core.CountPrepared) when the ranks are in-process; kernel counters
// always land in the registry of the process hosting the rank.
func (cl *Cluster) countEpoch(parent *obs.Span) (*Result, error) {
	rep, err := cl.run0(opCount, parent)
	if err != nil {
		return nil, err
	}
	res := rep.Count
	if res == nil {
		return nil, fmt.Errorf("tc2d: count epoch returned no result")
	}
	cl.lastTri.Store(res.Triangles)
	cl.mapTasks.Add(res.MapTasks)
	return res, nil
}

// metaNow reads the cluster's graph metadata from the cache run maintains.
// Every metadata consumer (Info, staleness checks, coalescing, metrics) goes
// through this seam so it cannot care where the ranks live.
func (cl *Cluster) metaNow() wireMeta {
	cl.metaMu.Lock()
	defer cl.metaMu.Unlock()
	return cl.meta
}

// resultCopy gives each caller of a shared flight its own Result value —
// callers may mutate what they get back.
func resultCopy(res *Result) *Result {
	if res == nil {
		return nil
	}
	cp := *res
	return &cp
}

// Transitivity returns the global clustering coefficient
// 3·triangles / #wedges of the resident graph. Both inputs stay exact
// across updates: the wedge count is maintained incrementally by
// ApplyUpdates and the triangle count is the delta-maintained running
// total (one default query runs first if none has completed yet), so no
// stale cache can leak into the ratio. Admits concurrently, like Count.
func (cl *Cluster) Transitivity() (float64, error) {
	start := time.Now()
	cl.sched.gate.RLock()
	cl.metrics.admissionWait.Observe(time.Since(start).Seconds())
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return 0, ErrClosed
	}
	if cl.lastTri.Load() < 0 {
		if _, err := cl.countShared(); err != nil {
			cl.metrics.observeOp("transitivity", start, err)
			return 0, err
		}
		cl.queries.Add(1)
	}
	cl.metrics.observeOp("transitivity", start, nil)
	return TransitivityFromTotals(cl.lastTri.Load(), cl.metaNow().Wedges), nil
}

// Info returns a snapshot of the resident cluster.
func (cl *Cluster) Info() ClusterInfo {
	cl.sched.gate.RLock()
	defer cl.sched.gate.RUnlock()
	cl.syncGraphMetrics()
	meta := cl.metaNow()
	return ClusterInfo{
		N:                   meta.N,
		M:                   meta.M,
		BaseN:               meta.BaseN,
		OverflowN:           meta.OverflowN,
		OverflowFraction:    meta.overflowFraction(),
		SpaceVersion:        meta.SpaceVersion,
		Wedges:              meta.Wedges,
		Ranks:               cl.ranks,
		Queries:             cl.queries.Load(),
		Updates:             cl.updates.Load(),
		Rebuilds:            cl.rebuilds.Load(),
		IncrementalRebuilds: cl.incRebuilds.Load(),
		ReadEpochs:          cl.readEpochs.Load(),
		WriteEpochs:         int64(cl.metrics.writeEpochs.Value()),
		CoalescedBatches:    cl.sched.absorbed.Load(),
		QueueDepth:          cl.sched.depth.Load(),
		MapTasks:            cl.mapTasks.Load(),
		PreOps:              meta.PreOps,
		Persist:             cl.persistInfo(),
		Workers:             cl.Workers(),
		Degraded:            cl.Degraded(),
	}
}

// Close releases the cluster: the write queue is drained first (every
// ApplyUpdates accepted before Close began still commits — and, on a
// durable cluster, lands in the WAL), in-flight queries and snapshots
// finish (an in-flight Snapshot holds the gate shared, so the world never
// comes down under its encoding epoch), then the world comes down and the
// WAL handle is released. Close is idempotent; operations after Close
// return ErrClosed.
func (cl *Cluster) Close() error {
	cl.closeOnce.Do(func() {
		s := cl.sched
		s.mu.Lock()
		s.closing = true
		s.cond.Broadcast()
		s.mu.Unlock()
		<-s.drainedCh
		s.gate.Lock()
		cl.closed.Store(true)
		cl.closeErr = cl.eng.close()
		cl.closePersist()
		s.gate.Unlock()
	})
	return cl.closeErr
}
