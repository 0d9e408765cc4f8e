package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tc2d"
	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
	"tc2d/internal/repl"
	"tc2d/internal/seqtc"
	"tc2d/internal/snapshot"
)

// Fixed sizes of the traced run. Its passes run operation counts, not a
// length of time, so that every count metric repeats exactly on one seed;
// the counts scale with -seconds and stand as written at -seconds 10.
const (
	prepareReps  = 3  // scatter + prepare repetitions of the layer walk
	countReps    = 5  // CountPrepared epochs of the layer walk
	walkBatches  = 48 // batches the walk's two states are fed
	controlReads = 8  // coord-mixed: quiescent reads on coordinator and control
	controlWrite = 32 // coord-mixed: quiescent batches on coordinator and control
	restoreRuns  = 3
	microReps    = 200 // empty epochs / exchanges of the mpi micro-measurements
	frameRecords = 64
	replayRecs   = 256
)

// fixedOps scales the workload's fixed-count pass to -seconds.
func fixedOps(w *workload, seconds int) limit {
	return limit{reads: (w.FixedReads*seconds + 9) / 10, writes: (w.FixedWrites*seconds + 9) / 10}
}

// layerRun is the traced run: the workload's mix as a fixed-count pass with
// tracing off, the same pass again through the traced entry points, registry
// deltas across both, the layer walk on a world of the harness's own, and a
// restore where the shape is durable.
func layerRun(r *run, cfg config) (*outcome, error) {
	o := &outcome{metrics: values{}}
	v := o.metrics
	r.rec = newRecorder()

	sys, err := setup(r.w, cfg.seed, r.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.sys = sys
	v["pworld.assemble_s"] = sys.assembleS
	v["repl.bootstrap_s"] = sys.bootstrapS
	if sys.fol != nil {
		v["repl.bootstrap_bytes"] = float64(sys.fol.Info().BootstrapBytes)
	}

	id := r.rec.start(0, "walk", "seqtc", "count", -1)
	t0 := time.Now()
	r.base = seqtc.Count(sys.g)
	v["seqtc.count_s"] = time.Since(t0).Seconds()
	r.rec.end(id)

	if r.w.Shape == shapeCoord {
		if err := coordControl(r, v); err != nil {
			return nil, err
		}
	}

	// The two fixed-count passes and the registry deltas across them.
	r.warmup()
	lim := fixedOps(r.w, cfg.seconds)
	regs := sys.registries()
	before := regs.snapshot()
	plain := r.pass(lim, false)
	traced := r.pass(lim, true)
	r.verifyFinal()
	edges := float64(sys.g.NumEdges())
	if sys.cl != nil {
		edges = float64(sys.cl.Info().M)
	}
	// Closing drains the write loop, so a snapshot still running behind the
	// last batch is in the registry before it is read. The PersistDir must
	// outlive the cluster for the size and restore measurements; it goes
	// with the run's scratch directory.
	dir := sys.dir
	sys.dir = ""
	if err := sys.close(); err != nil {
		return nil, err
	}
	registryMetrics(v, before, regs.snapshot(), plain, traced)
	if dir != "" {
		v["snapshot.disk_bytes_per_edge"] = float64(dirSize(dir)) / edges
		restoreS, err := r.restore(dir)
		if err != nil {
			return nil, err
		}
		v["tc2d.restore_s"] = restoreS
	}
	v["go.gc_cycles"] = float64(plain.gcCycles)
	v["go.gc_pause_ms"] = plain.gcPauseMS
	if len(plain.visibleMS) > 0 {
		v["tc2d.repl_visible_ms"] = median(plain.visibleMS)
	}
	if len(plain.rebuildMS)+len(traced.rebuildMS) > 0 {
		v["delta.rebuild_batch_ms"] = median(append(plain.rebuildMS, traced.rebuildMS...))
	}
	if plain.sent+traced.sent > 0 {
		v["delta.effective_frac"] = float64(plain.updates+traced.updates) / float64(plain.sent+traced.sent)
	}
	// Tracing overhead on the workload's own operation: reads where the
	// window reads through a traced entry point, batches otherwise.
	a, b := plain.readMS, traced.readMS
	if !r.w.Reads {
		a, b = plain.writeMS, traced.writeMS
	}
	if r.w.Shape != shapeOneshot && len(a) > 0 && len(b) > 0 {
		v["tc2d.trace_overhead_frac"] = (median(b) - median(a)) / median(a)
	}

	// The layer walk, on the graph as generated and a stream of its own.
	wk := newWalker(r)
	defer wk.close()
	if err := wk.walk(v); err != nil {
		return nil, fmt.Errorf("layer walk: %w", err)
	}

	// Scheduler overheads: what the public entry points add to the layers
	// they call.
	if len(plain.readMS) > 0 && r.w.Shape != shapeOneshot {
		v["tc2d.read_overhead_ms"] = median(plain.readMS) - v["core.count_s"]*1000
	}
	if len(plain.writeMS) > 0 {
		wal := (v["snapshot.wal_append_us"] + v["snapshot.wal_fsync_us"]) / 1000
		v["tc2d.write_overhead_ms"] = median(plain.writeMS) - v["delta.apply_ms"] - wal
	}

	o.note("fixed-count passes: %d+%d reads, %d+%d batches, %d spans recorded",
		len(plain.readMS), len(traced.readMS), len(plain.writeMS), len(traced.writeMS), len(r.rec.spans))
	if cfg.out != "" {
		if err := r.rec.write(filepath.Join(cfg.out, "trace-"+r.w.Name+".json")); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// coordControl measures what the process boundary costs: the same quiescent
// reads and the same first batches of the stream on the coordinator cluster
// and on an in-process cluster over the same graph.
func coordControl(r *run, v values) error {
	control, err := tc2d.NewCluster(r.sys.g, tc2d.Options{Ranks: ranks})
	if err != nil {
		return err
	}
	defer control.Close()
	controlStream := newStream(r.sys.g, r.seed, r.w.hot())
	timed := func(what string, op func() error) float64 {
		t0 := time.Now()
		err := op()
		ms := msSince(t0)
		r.ok(err, what)
		return ms
	}
	var readC, readI, writeC, writeI []float64
	for i := 0; i < warmupOps+controlReads; i++ {
		c := timed("control read (coordinator)", func() error { _, err := r.sys.read(); return err })
		in := timed("control read (in-process)", func() error { _, err := control.Count(tc2d.QueryOptions{}); return err })
		if i >= warmupOps {
			readC, readI = append(readC, c), append(readI, in)
		}
	}
	for i := 0; i < warmupOps+controlWrite; i++ {
		mine, its := r.stream().next(), controlStream.next()
		c := timed("control write (coordinator)", func() error { _, err := r.sys.cl.ApplyUpdates(mine); return err })
		in := timed("control write (in-process)", func() error { _, err := control.ApplyUpdates(its); return err })
		if i >= warmupOps {
			writeC, writeI = append(writeC, c), append(writeI, in)
		}
	}
	v["tc2d.coord_read_overhead_ms"] = median(readC) - median(readI)
	v["tc2d.coord_write_overhead_ms"] = median(writeC) - median(writeI)
	return nil
}

// restore reopens the PersistDir restoreRuns times; each restore is timed up
// to its first count, which must match the oracle.
func (r *run) restore(dir string) (float64, error) {
	want, err := r.want()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < restoreRuns; i++ {
		t0 := time.Now()
		cl, err := tc2d.OpenCluster(dir, tc2d.Options{})
		if err != nil {
			return 0, fmt.Errorf("restore: %w", err)
		}
		res, err := cl.Count(tc2d.QueryOptions{})
		secs = append(secs, time.Since(t0).Seconds())
		if r.ok(err, "first read after restore") && res.Triangles != want {
			r.fail(wrongCount("first read after restore", res.Triangles, want))
		}
		if err := cl.Close(); err != nil {
			return 0, fmt.Errorf("restore: %w", err)
		}
	}
	return median(secs), nil
}

func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// registryPair holds the registry of the cluster that takes the writes and
// of the one that serves the reads (the same one unless the shape has a
// follower). A shape without a cluster has two nil registries, which
// snapshot as empty. Registries outlive their clusters.
type registryPair [2]*obs.Registry

func (s *system) registries() registryPair {
	var p registryPair
	if s.cl != nil {
		p[0] = s.cl.Metrics()
		p[1] = p[0]
	}
	if s.fol != nil {
		p[1] = s.fol.Metrics()
	}
	return p
}

func (p registryPair) snapshot() [2]map[string]float64 {
	return [2]map[string]float64{p[0].Snapshot(), p[1].Snapshot()}
}

// registryMetrics derives the R metrics from registry growth across the two
// fixed-count passes.
func registryMetrics(v values, before, after [2]map[string]float64, passes ...*samples) {
	var updates float64
	for _, p := range passes {
		updates += float64(p.updates)
	}
	d := func(side int, key string) float64 { return after[side][key] - before[side][key] }
	meanUS := func(side int, hist string) float64 {
		if n := d(side, hist+"_count"); n > 0 {
			return d(side, hist+"_sum") / n * 1e6
		}
		return 0
	}
	const wr, rd = 0, 1
	v["delta.rebuilds_full"] = d(wr, `tc_rebuilds_total{mode="full"}`)
	v["delta.rebuilds_incr"] = d(wr, `tc_rebuilds_total{mode="incremental"}`)
	v["tc2d.admission_wait_us"] = meanUS(rd, "tc_sched_admission_wait_seconds")
	v["tc2d.queue_wait_us"] = meanUS(wr, "tc_sched_queue_wait_seconds")
	v["tc2d.read_flights_shared"] = d(rd, "tc_sched_read_flights_shared_total")
	if e := d(wr, "tc_sched_write_epochs_total"); e > 0 {
		v["tc2d.write_coalesce"] = d(wr, "tc_sched_absorbed_batches_total") / e
	}
	v["snapshot.wal_append_us"] = meanUS(wr, "tc_wal_append_seconds")
	v["snapshot.wal_fsync_us"] = meanUS(wr, "tc_wal_fsync_seconds")
	v["snapshot.snapshot_ms"] = meanUS(wr, "tc_snapshot_seconds") / 1000
	deltas := d(wr, "tc_snapshot_delta_writes_total")
	v["snapshot.snapshots_delta"] = deltas
	v["snapshot.snapshots_base"] = d(wr, "tc_snapshot_writes_total") - deltas
	if f := d(wr, "tc_repl_shipped_frames_total"); f > 0 {
		v["repl.records_per_frame"] = d(wr, "tc_repl_shipped_records_total") / f
	}
	if updates > 0 {
		v["snapshot.wal_bytes_per_update"] = d(wr, "tc_wal_bytes_total") / updates
		v["snapshot.snapshot_bytes_per_update"] = d(wr, "tc_snapshot_bytes_sum") / updates
		v["repl.shipped_bytes_per_update"] = d(wr, "tc_repl_shipped_bytes_total") / updates
	}
}

// walker is the layer walk: a world of the harness's own on which each
// layer's exported functions are called one at a time, every call wrapped in
// one harness span per rank.
type walker struct {
	r     *run
	rec   *recorder
	reg   *obs.Registry
	world *mpi.World
	a, b  []*core.Prepared // twin resident states: a gets the full rebuild, b the incremental one
	st    *stream
}

func walkConfig(reg *obs.Registry) mpi.Config {
	return mpi.Config{Model: mpi.DefaultCostModel(), ComputeSlots: runtime.GOMAXPROCS(0), Metrics: reg}
}

func newWalker(r *run) *walker {
	reg := obs.NewRegistry()
	return &walker{r: r, rec: r.rec, reg: reg, world: mpi.NewWorld(ranks, walkConfig(reg)),
		st: newStream(r.sys.g, r.seed, r.w.hot())}
}

func (wk *walker) close() { wk.world.Close() }

// epoch runs fn on every rank of world inside one harness span per rank and
// returns each rank's seconds and span id.
func (wk *walker) epoch(world *mpi.World, read bool, layer, name string, fn func(c *mpi.Comm) error) (secs []float64, ids []int, err error) {
	secs, ids = make([]float64, ranks), make([]int, ranks)
	run := world.Run
	if read {
		run = world.RunRead
	}
	_, err = run(func(c *mpi.Comm) (any, error) {
		id := wk.rec.start(0, "walk", layer, name, c.Rank())
		t0 := time.Now()
		err := fn(c)
		secs[c.Rank()] = time.Since(t0).Seconds()
		wk.rec.end(id)
		ids[c.Rank()] = id
		return nil, err
	})
	return secs, ids, err
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// traffic sums the bytes and messages the walk world's ranks have sent so far.
func (wk *walker) traffic() (bytes, msgs float64) {
	for k, x := range wk.reg.Snapshot() {
		switch {
		case strings.HasPrefix(k, "tc_mpi_rank_bytes_sent_total{"):
			bytes += x
		case strings.HasPrefix(k, "tc_mpi_rank_msgs_sent_total{"):
			msgs += x
		}
	}
	return bytes, msgs
}

func (wk *walker) walk(v values) error {
	for _, step := range []func(values) error{
		wk.prepare, wk.count, wk.applyStream, wk.codecs, wk.rebuilds, wk.mpiMicro, wk.walReplay,
	} {
		if err := step(v); err != nil {
			return err
		}
	}
	wk.replFrames(v)
	wk.expose(v)
	return nil
}

// prepare walks internal/dgraph and core.Prepare: scatter the graph, then
// run the preprocessing pipeline, prepareReps times. The last two results
// become the twin states of the later steps.
func (wk *walker) prepare(v values) error {
	var scatter, prep, alloc []float64
	for i := 0; i < prepareReps; i++ {
		before := totalAlloc()
		dist := make([]*dgraph.Dist1D, ranks)
		secs, _, err := wk.epoch(wk.world, false, "dgraph", "scatter", func(c *mpi.Comm) (err error) {
			dist[c.Rank()], err = dgraph.ScatterInput{Graph: wk.r.sys.g}.Build(c)
			return err
		})
		if err != nil {
			return err
		}
		scatter = append(scatter, maxOf(secs))
		state := make([]*core.Prepared, ranks)
		secs, _, err = wk.epoch(wk.world, false, "core", "prepare", func(c *mpi.Comm) (err error) {
			state[c.Rank()], err = core.Prepare(c, dist[c.Rank()], core.Options{})
			return err
		})
		if err != nil {
			return err
		}
		prep = append(prep, maxOf(secs))
		alloc = append(alloc, float64(totalAlloc()-before))
		wk.a, wk.b = state, wk.a
	}
	v["dgraph.scatter_s"] = median(scatter)
	v["core.prepare_s"] = median(prep)
	v["core.prepare_alloc_bytes"] = median(alloc)
	v["core.prepare_ops"] = float64(wk.a[0].PreOps())
	return nil
}

// countOnce runs one CountPrepared epoch over state, hangs the step tree the
// count emits for each rank under that rank's harness span, and returns rank
// 0's result with the per-rank seconds and span ids.
func (wk *walker) countOnce(state []*core.Prepared) (*core.Result, []float64, []int, error) {
	parent := obs.NewTrace("count").Root
	var res *core.Result
	secs, ids, err := wk.epoch(wk.world, true, "core", "count", func(c *mpi.Comm) error {
		got, err := core.CountPrepared(c, state[c.Rank()], core.Options{Trace: parent})
		if c.Rank() == 0 {
			res = got
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	parent.End()
	tree, err := decodeObs(parent)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, rankSpan := range tree.Children {
		if rk, ok := rankSpan.Attrs["rank"].(float64); ok {
			id := ids[int(rk)]
			wk.rec.importObs(id, "walk", "core", rankSpan, wk.rec.startOf(id), int(rk))
		}
	}
	return res, secs, ids, nil
}

// count walks core.CountPrepared on the freshly prepared state: whole-call
// time per rank from the harness spans, the step breakdown from the self
// times of the spans the count itself emits, exact work counters from its
// Result, and the rank-to-rank traffic from the world's registry.
func (wk *walker) count(v values) error {
	var whole, imbalance, alloc []float64
	steps := map[string][]float64{}
	var res *core.Result
	bytes0, msgs0 := wk.traffic()
	for i := 0; i < countReps; i++ {
		before := totalAlloc()
		got, secs, ids, err := wk.countOnce(wk.a)
		if err != nil {
			return err
		}
		alloc = append(alloc, float64(totalAlloc()-before))
		res = got
		whole = append(whole, maxOf(secs))
		// Per rank, the self time of each step kind; the slowest rank is
		// what the caller waits for.
		slowest := map[string]float64{}
		var kernel []float64
		for _, id := range ids {
			sums := wk.rec.selfByName(id)
			for name, ms := range sums {
				slowest[name] = max(slowest[name], ms)
			}
			kernel = append(kernel, sums["kernel"])
		}
		for name, ms := range slowest {
			steps[name] = append(steps[name], ms)
		}
		if m := mean(kernel); m > 0 {
			imbalance = append(imbalance, maxOf(kernel)/m)
		}
	}
	wk.r.check("layer walk count", res.Triangles, wk.r.base)
	v["core.count_s"] = median(whole)
	v["core.rank_imbalance"] = median(imbalance)
	v["core.kernel_ms"] = median(steps["kernel"])
	v["core.shift_ms"] = median(steps["shift"])
	v["core.align_ms"] = median(steps["encode"]) + median(steps["align"])
	v["core.reduce_ms"] = median(steps["reduce"])
	v["core.probes"] = float64(res.Probes)
	v["core.merge_ops"] = float64(res.MergeOps)
	v["core.map_tasks"] = float64(res.MapTasks)
	v["core.merge_tasks"] = float64(res.MergeTasks)
	v["core.count_alloc_bytes"] = median(alloc)
	bytes1, msgs1 := wk.traffic()
	v["mpi.bytes_per_read"] = (bytes1 - bytes0) / countReps
	v["mpi.msgs_per_read"] = (msgs1 - msgs0) / countReps
	return nil
}

// applyStream walks delta.Apply: the first walkBatches batches of the
// workload's stream go into both twin states; the first state's epochs are
// the measured ones.
func (wk *walker) applyStream(v values) error {
	for _, pr := range wk.a {
		pr.EnableSnapshotTracking()
	}
	var ms []float64
	var bytes, msgs float64
	for i := 0; i < walkBatches; i++ {
		canon, _, err := delta.Canonicalize(wk.st.next(), wk.a[0].N())
		if err != nil {
			return err
		}
		bytes0, msgs0 := wk.traffic()
		secs, _, err := wk.epoch(wk.world, false, "delta", "apply", func(c *mpi.Comm) error {
			_, err := delta.Apply(c, wk.a[c.Rank()], canon)
			return err
		})
		if err != nil {
			return err
		}
		ms = append(ms, maxOf(secs)*1000)
		bytes1, msgs1 := wk.traffic()
		bytes, msgs = bytes+bytes1-bytes0, msgs+msgs1-msgs0
		if _, err := wk.world.Run(func(c *mpi.Comm) (any, error) {
			return delta.Apply(c, wk.b[c.Rank()], canon)
		}); err != nil {
			return err
		}
	}
	v["delta.apply_ms"] = median(ms)
	v["mpi.bytes_per_write_batch"] = bytes / walkBatches
	v["mpi.msgs_per_write_batch"] = msgs / walkBatches
	return nil
}

// codecs walks the snapshot codecs on the post-stream state.
func (wk *walker) codecs(v values) error {
	blobs := make([][]byte, ranks)
	deltas := make([]int, ranks)
	secs, _, err := wk.epoch(wk.world, true, "core", "encode", func(c *mpi.Comm) error {
		blobs[c.Rank()] = core.EncodePrepared(wk.a[c.Rank()])
		return nil
	})
	if err != nil {
		return err
	}
	v["core.encode_s"] = maxOf(secs)
	if _, _, err = wk.epoch(wk.world, true, "core", "encode_delta", func(c *mpi.Comm) error {
		deltas[c.Rank()] = len(core.EncodePreparedDelta(wk.a[c.Rank()]))
		return nil
	}); err != nil {
		return err
	}
	secs, _, err = wk.epoch(wk.world, true, "core", "decode", func(c *mpi.Comm) error {
		_, err := core.DecodePrepared(blobs[c.Rank()], c.Rank(), ranks)
		return err
	})
	if err != nil {
		return err
	}
	v["core.decode_s"] = maxOf(secs)
	for i := range blobs {
		v["core.encode_bytes"] += float64(len(blobs[i]))
		v["core.delta_encode_bytes"] += float64(deltas[i])
	}
	return nil
}

// rebuilds walks the two staleness rebuilds on the twin states, then checks
// that both still count what the oracle says the stream left behind.
func (wk *walker) rebuilds(v values) error {
	rebuilt := make([]*core.Prepared, ranks)
	secs, _, err := wk.epoch(wk.world, false, "delta", "rebuild_full", func(c *mpi.Comm) (err error) {
		rebuilt[c.Rank()], err = delta.Rebuild(c, wk.a[c.Rank()])
		return err
	})
	if err != nil {
		return err
	}
	v["delta.rebuild_full_ms"] = maxOf(secs) * 1000
	var stats *delta.RebuildStats
	secs, _, err = wk.epoch(wk.world, false, "delta", "rebuild_incremental", func(c *mpi.Comm) error {
		st, err := delta.RebuildIncremental(c, wk.b[c.Rank()])
		if c.Rank() == 0 {
			stats = st
		}
		return err
	})
	if err != nil {
		return err
	}
	v["delta.rebuild_incr_ms"] = maxOf(secs) * 1000
	v["delta.rebuild_incr_moved_rows"] = float64(stats.Moved)

	want, err := wk.st.oracle()
	if err != nil {
		return err
	}
	for _, state := range [][]*core.Prepared{rebuilt, wk.b} {
		res, _, _, err := wk.countOnce(state)
		if err != nil {
			return err
		}
		wk.r.check("layer walk count after rebuild", res.Triangles, want)
	}
	return nil
}

// mpiMicro walks internal/mpi on both transports: the cost of dispatching an
// empty read epoch, and of one 64 KiB exchange between two ranks.
func (wk *walker) mpiMicro(v values) error {
	tcp, err := mpi.NewTCPWorld(ranks, walkConfig(nil))
	if err != nil {
		return err
	}
	defer tcp.Close()
	payload := make([]byte, 64<<10)
	for i, world := range []*mpi.World{wk.world, tcp} {
		name := []string{"channel", "tcp"}[i]
		var us []float64
		for i := 0; i < microReps; i++ {
			t0 := time.Now()
			if _, err := world.RunRead(func(*mpi.Comm) (any, error) { return nil, nil }); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		v["mpi.epoch_dispatch_us."+name] = median(us)
		secs, _, err := wk.epoch(world, true, "mpi", "pingpong_"+name, func(c *mpi.Comm) error {
			if c.Rank() < 2 {
				for i := 0; i < microReps; i++ {
					c.SendRecv(1-c.Rank(), 7, payload, 1-c.Rank())
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		v["mpi.pingpong_64k_us."+name] = secs[0] * 1e6 / microReps
	}
	return nil
}

// walReplay walks internal/snapshot's log reader: a WAL of batch-sized
// records is written without fsync and replayed.
func (wk *walker) walReplay(v values) error {
	dir, err := os.MkdirTemp(wk.r.tmp, "walk-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, err := snapshot.CreateWAL(dir, 0, 0, false)
	if err != nil {
		return err
	}
	payload := make([]byte, 9*batchSize) // a batch in the WAL is about 9 bytes an update
	for seq := uint64(1); seq <= replayRecs; seq++ {
		if err := wal.Append(seq, payload); err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	id := wk.rec.start(0, "walk", "snapshot", "replay", -1)
	t0 := time.Now()
	last, _, _, err := snapshot.Replay(dir, 0, func(uint64, []byte) error { return nil })
	ms := msSince(t0)
	wk.rec.end(id)
	if err != nil || last != replayRecs {
		return fmt.Errorf("snapshot.Replay stopped at record %d of %d: %v", last, replayRecs, err)
	}
	v["snapshot.replay_ms_per_batch"] = ms / replayRecs
	return nil
}

// replFrames walks internal/repl's framing on one 64-record frame.
func (wk *walker) replFrames(v values) {
	f := &repl.Frame{Committed: frameRecords}
	for seq := uint64(1); seq <= frameRecords; seq++ {
		f.Records = append(f.Records, snapshot.Record{Seq: seq, Payload: make([]byte, 9*batchSize)})
	}
	var enc, dec []float64
	for i := 0; i < microReps; i++ {
		id := wk.rec.start(0, "walk", "repl", "frame_encode", -1)
		t0 := time.Now()
		wire := f.Encode()
		enc = append(enc, float64(time.Since(t0))/1e3)
		wk.rec.end(id)
		id = wk.rec.start(0, "walk", "repl", "frame_decode", -1)
		t0 = time.Now()
		_, err := repl.DecodeFrame(wire)
		dec = append(dec, float64(time.Since(t0))/1e3)
		wk.rec.end(id)
		if err != nil {
			wk.r.ok(err, "layer walk frame decode")
			return
		}
	}
	v["repl.frame_encode_us"] = median(enc)
	v["repl.frame_decode_us"] = median(dec)
}

// expose walks internal/obs: one scrape of the walk's registry, populated by
// every step before it.
func (wk *walker) expose(v values) {
	var us []float64
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		wk.reg.Expose(io.Discard) // io.Discard cannot fail a write
		us = append(us, float64(time.Since(t0))/1e3)
	}
	v["obs.expose_us"] = median(us)
}
