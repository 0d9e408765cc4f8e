package tc2d

// Cluster observability: every resident cluster owns (or is handed via
// Options.Metrics) an obs.Registry, and publishes into it from every layer —
// the mpi runtime (epoch and per-rank comm/comp totals), the counting kernel
// (steps, probes, intersection mix), the epoch scheduler
// (admission and queue waits, coalescing), and the durability path (WAL
// append/fsync latency, snapshot size and duration). The handles are
// resolved once here, so the hot paths pay a few atomic operations per
// event. A resident cluster always has a registry (resolve creates a
// private one), so every handle is live; only the coordinator-only worker
// series stay nil on in-process clusters.

import (
	"time"

	"tc2d/internal/obs"
)

// batchBuckets sizes the write-coalescing histogram: batches per write epoch.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// clusterMetrics carries the cluster-layer metric handles.
type clusterMetrics struct {
	reg *obs.Registry

	// Per-operation query accounting, keyed by op label
	// (count, transitivity, update, snapshot).
	queries   map[string]*obs.Counter
	queryErrs map[string]*obs.Counter
	latency   map[string]*obs.Histogram

	// Scheduler.
	admissionWait *obs.Histogram
	flightShared  *obs.Counter
	queueWait     *obs.Histogram
	queueDepth    *obs.Gauge
	writeEpochs   *obs.Counter
	writeEpochSec *obs.Histogram
	absorbed      *obs.Counter
	deferred      *obs.Counter
	coalesceSize  *obs.Histogram

	// Rebuild mode split and the incremental mode's savings: rebuildsBy is
	// keyed by mode label (incremental, full); savedOps accumulates the
	// preprocessing operations incremental rebuilds avoided versus the last
	// full build, movedRows the block rows they physically relocated.
	rebuildsBy       map[string]*obs.Counter
	rebuildSavedOps  *obs.Counter
	rebuildMovedRows *obs.Counter

	// Resident graph state.
	vertices  *obs.Gauge
	edges     *obs.Gauge
	triangles *obs.Gauge
	overflow  *obs.Gauge

	// Durability: WAL appends (write vs fsync split) and snapshots.
	walAppends   *obs.Counter
	walAppendSec *obs.Histogram
	walFsyncs    *obs.Counter
	walFsyncSec  *obs.Histogram
	walBytes     *obs.Counter
	walReplayed  *obs.Counter
	snapWrites   *obs.Counter
	snapSeconds  *obs.Histogram
	snapBytes    *obs.Histogram
	snapLastSeq  *obs.Gauge

	// Delta-compressed snapshots: the subset of snapshot writes that were
	// churn-proportional diffs, and their (much smaller) sizes.
	snapDeltaWrites *obs.Counter
	snapDeltaBytes  *obs.Histogram

	// Replication. The primary side counts what its streaming surface ships
	// (frames, records, wire bytes, bootstrap blob bytes); the follower side
	// tracks its position in the stream (applied/primary seq, lag), the
	// batches it applied, and its bootstrap traffic. tc_role{role} marks
	// which side this process is (set by ReplicationHandler / OpenFollower).
	replShippedFrames  *obs.Counter
	replShippedRecords *obs.Counter
	replShippedBytes   *obs.Counter
	replSnapShipBytes  *obs.Counter
	replAppliedSeq     *obs.Gauge
	replPrimarySeq     *obs.Gauge
	replLagSeq         *obs.Gauge
	replBatchesApplied *obs.Counter
	replReceivedBytes  *obs.Counter
	replBootstraps     *obs.Counter
	replBootstrapBytes *obs.Counter

	// Multi-process deployment (coordinator clusters only, registered
	// lazily by initWorkerMetrics so in-process clusters expose no worker
	// series).
	workersConnected *obs.Gauge
	workerJoins      *obs.Counter
	workerLosses     *obs.Counter
	workerRejoins    *obs.Counter
	workerRecoverSec *obs.Histogram
}

// rebuildModes are the mode labels of tc_rebuilds_total.
var rebuildModes = []string{"incremental", "full"}

// queryOps are the operation labels of the query-level series.
var queryOps = []string{"count", "transitivity", "update", "snapshot"}

// newClusterMetrics resolves every cluster-layer handle against reg.
func newClusterMetrics(reg *obs.Registry) *clusterMetrics {
	m := &clusterMetrics{
		reg:       reg,
		queries:   make(map[string]*obs.Counter, len(queryOps)),
		queryErrs: make(map[string]*obs.Counter, len(queryOps)),
		latency:   make(map[string]*obs.Histogram, len(queryOps)),

		admissionWait: reg.Histogram("tc_sched_admission_wait_seconds",
			"Time read-path callers waited for scheduler admission (shared gate).",
			obs.DurationBuckets),
		flightShared: reg.Counter("tc_sched_read_flights_shared_total",
			"Queries served by joining another query's in-flight counting epoch."),
		queueWait: reg.Histogram("tc_sched_queue_wait_seconds",
			"Time write batches spent queued before a drain accepted them.",
			obs.DurationBuckets),
		queueDepth: reg.Gauge("tc_sched_queue_depth",
			"Write callers currently enqueued or in flight."),
		writeEpochs: reg.Counter("tc_sched_write_epochs_total",
			"Exclusive write epochs run by the scheduler."),
		writeEpochSec: reg.Histogram("tc_sched_write_epoch_seconds",
			"Wall time of one exclusive write epoch (delta apply, all ranks).",
			obs.DurationBuckets),
		absorbed: reg.Counter("tc_sched_absorbed_batches_total",
			"Caller batches coalesced into write epochs."),
		deferred: reg.Counter("tc_sched_deferred_batches_total",
			"Caller batches deferred to a later drain by a cross-batch conflict."),
		coalesceSize: reg.Histogram("tc_sched_coalesce_batches",
			"Caller batches absorbed per write epoch.", batchBuckets),
		rebuildsBy: make(map[string]*obs.Counter, len(rebuildModes)),
		rebuildSavedOps: reg.Counter("tc_rebuild_saved_ops_total",
			"Preprocessing operations incremental rebuilds avoided versus the last full build."),
		rebuildMovedRows: reg.Counter("tc_rebuild_moved_rows_total",
			"Block rows incremental rebuilds physically relocated."),

		vertices: reg.Gauge("tc_graph_vertices",
			"Vertices of the resident graph."),
		edges: reg.Gauge("tc_graph_edges",
			"Undirected edges of the resident graph."),
		triangles: reg.Gauge("tc_graph_triangles",
			"Maintained triangle total (-1 until the first count completes)."),
		overflow: reg.Gauge("tc_graph_overflow_vertices",
			"Vertices admitted since the last build (outside the degree-ordered layout)."),

		walAppends: reg.Counter("tc_wal_appends_total",
			"Committed super-batches appended to the write-ahead log."),
		walAppendSec: reg.Histogram("tc_wal_append_seconds",
			"WAL record write latency, excluding the fsync.", obs.DurationBuckets),
		walFsyncs: reg.Counter("tc_wal_fsyncs_total",
			"Per-commit WAL fsyncs performed."),
		walFsyncSec: reg.Histogram("tc_wal_fsync_seconds",
			"Per-commit WAL fsync latency.", obs.DurationBuckets),
		walBytes: reg.Counter("tc_wal_bytes_total",
			"Bytes appended to the write-ahead log (framing included)."),
		walReplayed: reg.Counter("tc_wal_replayed_batches_total",
			"WAL batches replayed while restoring the cluster."),
		snapWrites: reg.Counter("tc_snapshot_writes_total",
			"Snapshots encoded and published."),
		snapSeconds: reg.Histogram("tc_snapshot_seconds",
			"End-to-end snapshot duration (encode epoch, writes, commit, rotate).",
			obs.DurationBuckets),
		snapBytes: reg.Histogram("tc_snapshot_bytes",
			"Total size of the per-rank state blobs of one snapshot.",
			obs.SizeBuckets),
		snapLastSeq: reg.Gauge("tc_snapshot_last_seq",
			"WAL sequence covered by the newest published snapshot."),
		snapDeltaWrites: reg.Counter("tc_snapshot_delta_writes_total",
			"Snapshots published as churn-proportional delta blobs chained off a base."),
		snapDeltaBytes: reg.Histogram("tc_snapshot_delta_bytes",
			"Total size of the per-rank delta blobs of one delta snapshot.",
			obs.SizeBuckets),

		replShippedFrames: reg.Counter("tc_repl_shipped_frames_total",
			"WAL frames shipped to followers by this primary."),
		replShippedRecords: reg.Counter("tc_repl_shipped_records_total",
			"WAL records shipped to followers by this primary."),
		replShippedBytes: reg.Counter("tc_repl_shipped_bytes_total",
			"Frame wire bytes shipped to followers by this primary."),
		replSnapShipBytes: reg.Counter("tc_repl_snapshot_shipped_bytes_total",
			"Snapshot blob bytes shipped to bootstrapping followers."),
		replAppliedSeq: reg.Gauge("tc_repl_applied_seq",
			"Last WAL sequence this follower has applied."),
		replPrimarySeq: reg.Gauge("tc_repl_primary_seq",
			"Primary committed WAL sequence as last observed by this follower."),
		replLagSeq: reg.Gauge("tc_repl_lag_seq",
			"Committed-but-unapplied batches between the primary and this follower."),
		replBatchesApplied: reg.Counter("tc_repl_batches_applied_total",
			"Replicated write batches this follower applied."),
		replReceivedBytes: reg.Counter("tc_repl_received_bytes_total",
			"Frame wire bytes this follower fetched from its primary."),
		replBootstraps: reg.Counter("tc_repl_bootstraps_total",
			"Snapshot bootstraps this follower performed (initial and re-bootstraps)."),
		replBootstrapBytes: reg.Counter("tc_repl_bootstrap_bytes_total",
			"Snapshot blob bytes this follower fetched while bootstrapping."),
	}
	for _, mode := range rebuildModes {
		m.rebuildsBy[mode] = reg.Counter("tc_rebuilds_total",
			"Rebuilds of the resident blocks by mode: incremental (churn-proportional "+
				"partial re-sort) or full (complete preprocessing pipeline).",
			obs.L("mode", mode))
	}
	for _, op := range queryOps {
		m.queries[op] = reg.Counter("tc_queries_total",
			"Completed cluster operations by kind.", obs.L("op", op))
		m.queryErrs[op] = reg.Counter("tc_query_errors_total",
			"Failed cluster operations by kind.", obs.L("op", op))
		m.latency[op] = reg.Histogram("tc_query_seconds",
			"End-to-end operation latency by kind, admission wait included.",
			obs.DurationBuckets, obs.L("op", op))
	}
	return m
}

// initWorkerMetrics registers the coordinator-only worker series. Called
// once by the coordinator constructors, before any worker can join, so the
// event callbacks always find resolved handles.
func (m *clusterMetrics) initWorkerMetrics() {
	m.workersConnected = m.reg.Gauge("tc_workers_connected",
		"Worker processes currently connected to this coordinator.")
	m.workerJoins = m.reg.Counter("tc_worker_joins_total",
		"Worker processes admitted by this coordinator (initial joins and rejoins).")
	m.workerLosses = m.reg.Counter("tc_worker_losses_total",
		"Worker processes lost (crash, heartbeat timeout, or graceful leave).")
	m.workerRejoins = m.reg.Counter("tc_worker_recoveries_total",
		"Completed worker recoveries (snapshot chain + WAL tail replayed to a reassembled world).")
	m.workerRecoverSec = m.reg.Histogram("tc_worker_recovery_seconds",
		"Wall time of one worker recovery (restore epochs + WAL tail replay).",
		obs.DurationBuckets)
}

// observeWorkerJoin and observeWorkerLoss maintain the membership series;
// observeWorkerRecovery records one completed recovery. All are inert
// unless initWorkerMetrics ran.
func (m *clusterMetrics) observeWorkerJoin(connected int64) {
	if m.workersConnected == nil {
		return
	}
	m.workersConnected.Set(float64(connected))
	m.workerJoins.Inc()
}

func (m *clusterMetrics) observeWorkerLoss(connected int64, reason string) {
	if m.workersConnected == nil {
		return
	}
	m.workersConnected.Set(float64(connected))
	m.workerLosses.Inc()
	_ = reason // reasons appear in the coordinator log, not as a label (unbounded cardinality)
}

func (m *clusterMetrics) observeWorkerRecovery(d time.Duration) {
	if m.workerRejoins == nil {
		return
	}
	m.workerRejoins.Inc()
	m.workerRecoverSec.Observe(d.Seconds())
}

// setRole publishes tc_role{role=...} = 1 — the process-role marker
// scrapers group dashboards by. Called once, when the cluster takes a
// replication role (primary or follower); standalone clusters expose no
// role series.
func (m *clusterMetrics) setRole(role string) {
	m.reg.Gauge("tc_role",
		"Replication role of this process (1 for the role held).",
		obs.L("role", role)).Set(1)
}

// observeOp records one completed operation: its counter, latency and —
// when it failed — the error counter.
func (m *clusterMetrics) observeOp(op string, start time.Time, err error) {
	m.latency[op].Observe(time.Since(start).Seconds())
	if err != nil {
		m.queryErrs[op].Inc()
		return
	}
	m.queries[op].Inc()
}

// observeRebuild records one completed rebuild: the per-mode counter and —
// for incremental rebuilds — the saved-ops and moved-rows accumulators.
func (m *clusterMetrics) observeRebuild(mode string, savedOps int64, movedRows int) {
	m.rebuildsBy[mode].Inc()
	if mode == "incremental" {
		if savedOps > 0 {
			m.rebuildSavedOps.Add(float64(savedOps))
		}
		m.rebuildMovedRows.Add(float64(movedRows))
	}
}

// walObserver adapts the WAL's append callback onto the registry.
func (m *clusterMetrics) walObserver() func(write, fsync time.Duration, bytes int) {
	return func(write, fsync time.Duration, bytes int) {
		m.walAppends.Inc()
		m.walAppendSec.Observe(write.Seconds())
		m.walBytes.Add(float64(bytes))
		if fsync >= 0 {
			m.walFsyncs.Inc()
			m.walFsyncSec.Observe(fsync.Seconds())
		}
	}
}

// syncGraphMetrics refreshes the resident-graph gauges. Called where the
// graph can have changed (build, write epochs, rebuilds) and from Info(),
// so a scrape always sees current totals. The caller holds sched.gate.
func (cl *Cluster) syncGraphMetrics() {
	m := cl.metrics
	meta := cl.metaNow()
	m.vertices.Set(float64(meta.N))
	m.edges.Set(float64(meta.M))
	m.triangles.Set(float64(cl.lastTri.Load()))
	m.overflow.Set(float64(meta.OverflowN))
}

// Metrics returns the cluster's observability registry — the one passed in
// Options.Metrics, or the private registry NewCluster created. Serve it
// with obs.Registry.Expose (tcd's GET /metrics does) or poll Snapshot.
func (cl *Cluster) Metrics() *obs.Registry {
	return cl.metrics.reg
}
