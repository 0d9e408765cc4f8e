package main

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root repeats the names, units,
// directions and bounds; TestBenchmarkJSONAgrees keeps the two in step.

// shape is the process shape a workload runs the system in.
type shape int

const (
	shapeOneshot  shape = iota // no resident state: tc2d.Count from the raw graph
	shapeResident              // in-process Cluster, memory only
	shapeDurable               // in-process Cluster with PersistDir, fsync on
	shapeCoord                 // coordinator + two worker processes over loopback TCP
	shapeReplica               // durable primary + one HTTP follower; reads go to the follower
)

type workload struct {
	Name  string
	Why   string // one line, repeated in BENCHMARK.json
	Graph string // "rmat" or "er"
	Scale int
	Shape shape
	Hot   bool // update endpoints come from the hot set instead of every vertex
	// Reads and Writes say what the measured window issues. With both, one
	// reader and one writer run side by side; an operation kind the window
	// lacks is measured on its own, quiescent, after the window.
	Reads, Writes bool
	// FixedReads and FixedWrites size the traced run's fixed-count passes at
	// -seconds 10, about a quarter of what a window gets through. In a mixed
	// pass the writes end the pass and the reader reads until they do.
	FixedReads, FixedWrites int
}

var workloads = []workload{
	{Name: "oneshot-rmat", Graph: "rmat", Scale: 16, Shape: shapeOneshot, Reads: true, FixedReads: 6,
		Why: "the paper's job, a count from a raw skewed graph: scatter, relabel, prepare and allocation outweigh the kernel, so preprocessing and allocation changes show here"},
	{Name: "read-rmat", Graph: "rmat", Scale: 15, Shape: shapeResident, Reads: true, FixedReads: 24,
		Why: "resident reads on skewed degrees: preprocessing is bypassed and the Cannon shifts plus the adaptive kernel, hash path on hubs, are nearly all of the time"},
	{Name: "read-er", Graph: "er", Scale: 15, Shape: shapeResident, Reads: true, FixedReads: 40,
		Why: "same read loop on flat degrees: almost every pair takes the merge path, so a merge/hash recalibration that wins on read-rmat must not lose here"},
	{Name: "write-hot", Graph: "rmat", Scale: 14, Shape: shapeDurable, Hot: true, Writes: true, FixedWrites: 512,
		Why: "durable writes churning a 4% hot set: delta apply, WAL append and fsync, incremental staleness rebuilds and auto-snapshots, with reads only at quiescent checkpoints"},
	{Name: "coord-mixed", Graph: "rmat", Scale: 14, Shape: shapeCoord, Reads: true, Writes: true, FixedWrites: 48,
		Why: "the only workload whose ranks are other OS processes: every message crosses loopback TCP and the gob op envelope while one reader and one writer share the scheduler"},
	{Name: "replica-mixed", Graph: "rmat", Scale: 14, Shape: shapeReplica, Reads: true, Writes: true, FixedWrites: 192,
		Why: "writes on a durable primary, reads on an HTTP follower: WAL shipping, tailing and follower apply, with read load on another cluster than write load"},
}

// hot is the share of the vertices the workload's update stream draws its
// endpoints from; 0 means all of them.
func (w *workload) hot() float64 {
	if w.Hot {
		return hotFraction
	}
	return 0
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric describes one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 on per-layer metrics,
// which are not gated). Source says how a per-layer metric is obtained:
// W layer walk, T span tree of the traced API, R registry/Info/runtime delta,
// E end-to-end pass of the traced run. Exact marks counts that must repeat
// bit for bit between two runs of one commit on one seed.
type metric struct {
	Name, Unit, Better string
	Bound              float64
	Source             string
	Exact              bool
	Help               string
}

var endToEndMetrics = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "graph generation + cluster build + worker/follower spawn, median of five set-ups"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "median latency of a triangle-count answer: tc2d.Count on oneshot-rmat, Follower.Count on replica-mixed, Cluster.Count elsewhere"},
	{Name: "read_qps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Help: "count answers completed per second of reader time (one closed-loop reader)"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "median ApplyUpdates latency of one 512-update batch"},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Help: "effective updates committed per second of writer time, rebuild and snapshot stalls included"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05,
		Help: "runtime.MemStats.TotalAlloc growth over the window ÷ operations completed in it (harness process)"},
	{Name: "resident_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Help: "HeapInuse after runtime.GC() with the system resident and idle after the window (harness process)"},
}

var perLayerMetrics = []metric{
	{Name: "seqtc.count_s", Unit: "s", Better: "lower", Source: "W", Help: "seqtc.Count on the workload's graph, the single-threaded reference"},

	{Name: "dgraph.scatter_s", Unit: "s", Better: "lower", Source: "W", Help: "ScatterInput.Build, slowest rank"},

	{Name: "core.prepare_s", Unit: "s", Better: "lower", Source: "W", Help: "core.Prepare, slowest rank"},
	{Name: "core.prepare_ops", Unit: "count", Better: "lower", Source: "W", Exact: true, Help: "Prepared.PreOps after core.Prepare"},
	{Name: "core.prepare_alloc_bytes", Unit: "B", Better: "lower", Source: "W", Help: "TotalAlloc growth across scatter + prepare"},

	{Name: "core.count_s", Unit: "s", Better: "lower", Source: "W", Help: "core.CountPrepared, slowest rank"},
	{Name: "core.rank_imbalance", Unit: "ratio", Better: "lower", Source: "T", Help: "slowest rank's kernel time ÷ mean rank kernel time (the paper's Table 3)"},
	{Name: "core.kernel_ms", Unit: "ms", Better: "lower", Source: "T", Help: "kernel step self time summed over steps, slowest rank"},
	{Name: "core.shift_ms", Unit: "ms", Better: "lower", Source: "T", Help: "Cannon shift self time summed over steps, slowest rank"},
	{Name: "core.align_ms", Unit: "ms", Better: "lower", Source: "T", Help: "blob encode + initial alignment self time, slowest rank"},
	{Name: "core.reduce_ms", Unit: "ms", Better: "lower", Source: "T", Help: "final allreduce self time, slowest rank"},
	{Name: "core.probes", Unit: "count", Better: "lower", Source: "W", Exact: true, Help: "Result.Probes of one count"},
	{Name: "core.merge_ops", Unit: "count", Better: "lower", Source: "W", Exact: true, Help: "Result.MergeOps of one count"},
	{Name: "core.map_tasks", Unit: "count", Better: "lower", Source: "W", Exact: true, Help: "Result.MapTasks of one count"},
	{Name: "core.merge_tasks", Unit: "count", Better: "lower", Source: "W", Exact: true, Help: "Result.MergeTasks of one count"},
	{Name: "core.count_alloc_bytes", Unit: "B", Better: "lower", Source: "W", Help: "TotalAlloc growth per core.CountPrepared epoch"},

	{Name: "core.encode_s", Unit: "s", Better: "lower", Source: "W", Help: "EncodePrepared on the post-stream state, slowest rank"},
	{Name: "core.encode_bytes", Unit: "B", Better: "lower", Source: "W", Exact: true, Help: "EncodePrepared blob bytes, all ranks"},
	{Name: "core.delta_encode_bytes", Unit: "B", Better: "lower", Source: "W", Exact: true, Help: "EncodePreparedDelta blob bytes after the walk's stream, all ranks"},
	{Name: "core.decode_s", Unit: "s", Better: "lower", Source: "W", Help: "DecodePrepared of those blobs, slowest rank"},

	{Name: "delta.apply_ms", Unit: "ms", Better: "lower", Source: "W", Help: "delta.Apply of one batch, slowest rank, median over the walk's stream"},
	{Name: "delta.rebuild_full_ms", Unit: "ms", Better: "lower", Source: "W", Help: "delta.Rebuild on the post-stream state, slowest rank"},
	{Name: "delta.rebuild_incr_ms", Unit: "ms", Better: "lower", Source: "W", Help: "delta.RebuildIncremental on a twin state fed the same stream, slowest rank"},
	{Name: "delta.rebuild_incr_moved_rows", Unit: "count", Better: "lower", Source: "W", Exact: true, Help: "RebuildStats.Moved of that incremental rebuild"},
	{Name: "delta.rebuilds_full", Unit: "count", Better: "lower", Source: "R", Exact: true, Help: "full staleness rebuilds during the fixed-count passes"},
	{Name: "delta.rebuilds_incr", Unit: "count", Better: "lower", Source: "R", Exact: true, Help: "incremental staleness rebuilds during the fixed-count passes"},
	{Name: "delta.rebuild_batch_ms", Unit: "ms", Better: "lower", Source: "R", Help: "median latency of the batches that carried a rebuild"},
	{Name: "delta.effective_frac", Unit: "ratio", Better: "higher", Source: "R", Exact: true, Help: "effective updates ÷ updates sent (1 by construction of the stream)"},

	{Name: "mpi.epoch_dispatch_us.channel", Unit: "us", Better: "lower", Source: "W", Help: "empty RunRead epoch, channel transport"},
	{Name: "mpi.epoch_dispatch_us.tcp", Unit: "us", Better: "lower", Source: "W", Help: "empty RunRead epoch, loopback TCP transport"},
	{Name: "mpi.pingpong_64k_us.channel", Unit: "us", Better: "lower", Source: "W", Help: "64 KiB SendRecv exchange between two ranks, channel transport"},
	{Name: "mpi.pingpong_64k_us.tcp", Unit: "us", Better: "lower", Source: "W", Help: "64 KiB SendRecv exchange between two ranks, loopback TCP transport"},
	{Name: "mpi.bytes_per_read", Unit: "B", Better: "lower", Source: "R", Exact: true, Help: "rank-to-rank bytes sent per count epoch"},
	{Name: "mpi.msgs_per_read", Unit: "count", Better: "lower", Source: "R", Exact: true, Help: "rank-to-rank messages sent per count epoch"},
	{Name: "mpi.bytes_per_write_batch", Unit: "B", Better: "lower", Source: "R", Help: "rank-to-rank bytes sent per delta.Apply epoch"},
	{Name: "mpi.msgs_per_write_batch", Unit: "count", Better: "lower", Source: "R", Help: "rank-to-rank messages sent per delta.Apply epoch"},

	{Name: "pworld.assemble_s", Unit: "s", Better: "lower", Source: "R", Help: "coordinator listening → worker mesh ready, process spawn included (coord-mixed)"},
	{Name: "tc2d.coord_read_overhead_ms", Unit: "ms", Better: "lower", Source: "E", Help: "quiescent coordinator read p50 − in-process control on the same graph (coord-mixed)"},
	{Name: "tc2d.coord_write_overhead_ms", Unit: "ms", Better: "lower", Source: "E", Help: "quiescent coordinator write p50 − in-process control on the same stream (coord-mixed)"},

	{Name: "snapshot.wal_append_us", Unit: "us", Better: "lower", Source: "R", Help: "mean WAL record write, fsync excluded"},
	{Name: "snapshot.wal_fsync_us", Unit: "us", Better: "lower", Source: "R", Help: "mean per-commit WAL fsync"},
	{Name: "snapshot.wal_bytes_per_update", Unit: "B", Better: "lower", Source: "R", Exact: true, Help: "WAL bytes appended ÷ effective updates"},
	{Name: "snapshot.snapshot_ms", Unit: "ms", Better: "lower", Source: "R", Help: "mean snapshot duration (encode epoch, writes, commit, rotate)"},
	{Name: "snapshot.snapshots_base", Unit: "count", Better: "lower", Source: "R", Exact: true, Help: "base snapshots written during the passes"},
	{Name: "snapshot.snapshots_delta", Unit: "count", Better: "lower", Source: "R", Exact: true, Help: "delta snapshots written during the passes"},
	{Name: "snapshot.snapshot_bytes_per_update", Unit: "B", Better: "lower", Source: "R", Help: "snapshot blob bytes written ÷ effective updates"},
	{Name: "snapshot.replay_ms_per_batch", Unit: "ms", Better: "lower", Source: "W", Help: "snapshot.Replay over a 256-record WAL of batch-sized payloads, per record"},
	{Name: "snapshot.disk_bytes_per_edge", Unit: "B", Better: "lower", Source: "R", Help: "size of PersistDir after the passes ÷ resident edges"},

	{Name: "repl.frame_encode_us", Unit: "us", Better: "lower", Source: "W", Help: "Frame.Encode of a 64-record frame"},
	{Name: "repl.frame_decode_us", Unit: "us", Better: "lower", Source: "W", Help: "DecodeFrame of that frame"},
	{Name: "repl.shipped_bytes_per_update", Unit: "B", Better: "lower", Source: "R", Help: "frame bytes the primary shipped ÷ effective updates (replica-mixed)"},
	{Name: "repl.records_per_frame", Unit: "ratio", Better: "higher", Source: "R", Help: "WAL records ÷ frames shipped (replica-mixed)"},
	{Name: "repl.bootstrap_s", Unit: "s", Better: "lower", Source: "E", Help: "OpenFollower: chain fetch + decode (replica-mixed)"},
	{Name: "repl.bootstrap_bytes", Unit: "B", Better: "lower", Source: "R", Help: "snapshot bytes the follower fetched to bootstrap (replica-mixed)"},

	{Name: "tc2d.read_overhead_ms", Unit: "ms", Better: "lower", Source: "E", Help: "untraced read p50 − core.count_s: admission, flight table, epoch dispatch, result copy"},
	{Name: "tc2d.write_overhead_ms", Unit: "ms", Better: "lower", Source: "E", Help: "untraced write p50 − delta.apply_ms − WAL append and fsync: queueing, coalescing, demultiplexing"},
	{Name: "tc2d.admission_wait_us", Unit: "us", Better: "lower", Source: "R", Help: "mean wait of a read for the scheduler's shared gate"},
	{Name: "tc2d.queue_wait_us", Unit: "us", Better: "lower", Source: "R", Help: "mean wait of a write batch in the write queue"},
	{Name: "tc2d.write_coalesce", Unit: "ratio", Better: "higher", Source: "R", Help: "caller batches ÷ write epochs"},
	{Name: "tc2d.read_flights_shared", Unit: "count", Better: "higher", Source: "R", Help: "reads served by joining another read's epoch"},
	{Name: "tc2d.trace_overhead_frac", Unit: "ratio", Better: "lower", Source: "E", Help: "(traced p50 − untraced p50) ÷ untraced p50 of the workload's own operation"},
	{Name: "tc2d.restore_s", Unit: "s", Better: "lower", Source: "E", Help: "OpenCluster + first correct Count, median of three (durable shapes)"},
	{Name: "tc2d.repl_visible_ms", Unit: "ms", Better: "lower", Source: "E", Help: "primary ack → sequence applied on the follower, median (replica-mixed)"},

	{Name: "obs.expose_us", Unit: "us", Better: "lower", Source: "W", Help: "Registry.Expose of the populated registry"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Source: "R", Help: "GC cycles during the untraced fixed-count pass"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Source: "R", Help: "GC stop-the-world pause total during that pass"},
}

// value is one reported number with its unit, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects measurements by metric name.
type values map[string]float64

// report renders every metric of defs, 0 for the ones a workload does not
// exercise.
func (v values) report(defs []metric) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
