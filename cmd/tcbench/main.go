// Command tcbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	tcbench -exp all                      # everything (minutes)
//	tcbench -exp table2,fig1 -delta -2    # scaling study at smaller scale
//	tcbench -exp table5 -ranks 16,25,36
//
// Experiments: table1 table2 fig1 fig2 fig3 table3 table4 table5 table6
// ablation probes updates concurrent growth kernel maintenance. -delta shifts every dataset scale
// (negative = smaller/faster). "updates" is the mixed read/write scenario:
// a resident cluster absorbs batches of edge updates (delta counting, no
// rebuild) interleaved with full count queries, reporting update
// throughput against the full-rebuild alternative. "concurrent" is the
// epoch-scheduler scenario: R reader goroutines issue counting queries
// against one resident cluster while W writers stream update batches,
// reporting wall-clock read QPS per reader count, write-batch latency and
// the read/write coalescing factors. "growth" is the elastic-vertex-space
// scenario: arrival batches keep wiring brand-new vertex ids into the
// resident cluster (no rebuild on the hot path), sweeping apply cost
// against overflow fraction, then one fold rebuild restores the cyclic
// layout. "kernel" is the intra-rank parallel-kernel scenario: one
// resident state, counting epochs swept over kernel worker counts
// (1 → NumCPU) × intersection modes (adaptive merge/hash selection vs
// hash-only), reporting wall-time speedup per worker count and the
// probe/task counters that prove exactness. "maintenance" is the
// churn-proportional maintenance scenario: durable clusters absorb churn
// batches (a fraction of the edge count, half deletes/half inserts) under
// {incremental, full} rebuild × {delta, base} snapshot, reporting how many
// preprocessing ops the incremental rebuild and how many bytes the delta
// snapshot save over the boot-time full build and base snapshot. "replica"
// is the WAL-shipping read-replica scenario: a durable primary under one
// writer's update stream with a schedule of follower counts bootstrapping
// from its snapshots and tailing its WAL over loopback HTTP, reporting
// aggregate follower read QPS against the primary-only baseline, the
// primary's (flat) write throughput, sampled replication lag, convergence
// time and bootstrap-vs-WAL shipped bytes. All six always run when -json
// is given; their rows land in the update_runs, concurrent_runs,
// growth_runs, kernel_runs, maintenance_runs and replica_runs sections
// (schema v8). Every measured scenario also self-observes the benchmark
// process — peak heap, allocation volume, GC cycles/pauses, and (for the
// concurrent and maintenance scenarios' resident clusters) the
// metric-registry delta — into the JSON document's runtime section.
// Modeled parallel times come from the runtime's LogGP-style virtual clocks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tc2d/internal/harness"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

func main() {
	var (
		exps   = flag.String("exp", "all", "comma-separated experiments, or 'all'")
		delta  = flag.Int("delta", 0, "scale delta applied to all datasets (negative = smaller)")
		ranks  = flag.String("ranks", "", "comma-separated rank schedule (default: paper's 16..169)")
		alpha  = flag.Float64("alpha", 2e-6, "cost model latency (s)")
		beta   = flag.Float64("beta", 6e9, "cost model bandwidth (B/s)")
		abl    = flag.String("ablation-ranks", "16,100", "rank counts for the ablation study")
		reps   = flag.Int("repeats", 1, "repeat each measured point, keep the fastest (noise reduction)")
		detail = flag.Bool("v", false, "print progress to stderr")
		jsonTo = flag.String("json", "", "write machine-readable per-run results to this file (forces the scaling sweep and the updates scenario)")
		uRanks = flag.String("update-ranks", "4,9,16", "rank counts for the updates scenario")
		uBatch = flag.Int("update-batch", 512, "edge updates per batch in the updates scenario")
		uCount = flag.Int("update-batches", 8, "batches per point in the updates scenario")

		cRanks   = flag.Int("conc-ranks", 4, "rank count for the concurrent scenario")
		cReaders = flag.String("conc-readers", "1,2,4", "reader-goroutine schedule for the concurrent scenario")
		cWriters = flag.Int("conc-writers", 2, "writer goroutines in the concurrent scenario")
		cBatch   = flag.Int("conc-batch", 128, "edge updates per batch in the concurrent scenario")
		cQueries = flag.Int("conc-queries", 30, "queries per reader in the concurrent scenario")

		gRanks   = flag.String("growth-ranks", "4,9", "rank counts for the growth scenario")
		gBatch   = flag.Int("growth-batch", 256, "edges per arrival batch in the growth scenario")
		gBatches = flag.Int("growth-batches", 8, "arrival batches per point in the growth scenario")

		kRanks   = flag.Int("kernel-ranks", 4, "rank count for the kernel scenario")
		kThreads = flag.String("kernel-threads", "", "comma-separated kernel worker schedule (default: powers of two up to NumCPU)")

		mRanks = flag.Int("maint-ranks", 4, "rank count for the maintenance scenario")
		mChurn = flag.String("maint-churn", "0.01,0.05,0.2", "comma-separated churn fractions for the maintenance scenario")

		rRanks     = flag.Int("replica-ranks", 4, "rank count for the replica scenario")
		rFollowers = flag.String("replica-followers", "0,1,2", "follower-count schedule for the replica scenario (0 = primary-only baseline)")
		rBatch     = flag.Int("replica-batch", 128, "edge updates per write batch in the replica scenario")
		rReaders   = flag.Int("replica-readers", 2, "readers per serving endpoint in the replica scenario")
		rQueries   = flag.Int("replica-queries", 20, "queries per reader in the replica scenario")
		rRate      = flag.Float64("replica-write-rate", 8, "paced writer batches per second in the replica scenario")
		rReadRate  = flag.Float64("replica-read-rate", 8, "paced queries per second per reader in the replica scenario")
	)
	flag.Parse()

	cfg := harness.Config{Model: mpi.CostModel{Alpha: *alpha, Beta: *beta, Overhead: 5e-7}, Repeats: *reps}
	if *ranks != "" {
		cfg.Ranks = parseInts(*ranks)
	}
	specs := harness.DefaultSpecs(*delta)

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	w := os.Stdout
	step := func(name string, fn func() error) {
		if !sel(name) {
			return
		}
		t0 := time.Now()
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running %s...\n", name)
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: %s done in %v\n", name, time.Since(t0).Round(time.Millisecond))
		}
	}

	step("table1", func() error { return harness.Table1(w, specs) })

	// Each measured scenario self-observes the benchmark process (peak
	// heap, GC work, registry deltas); the records land in the JSON
	// document's runtime section.
	var runtimeStats []harness.RuntimeStat

	// The scaling sweep feeds Table 2, Figures 1–3 and the -json record.
	needScaling := sel("table2") || sel("fig1") || sel("fig2") || sel("fig3") || *jsonTo != ""
	var rows []harness.ScalingRow
	if needScaling {
		var err error
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running scaling sweep over ranks %v...\n", cfg.Ranks)
		}
		so := harness.StartRuntimeObs(nil)
		rows, err = harness.RunScaling(specs, cfg)
		runtimeStats = append(runtimeStats, so.Stop("scaling"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: scaling sweep: %v\n", err)
			os.Exit(1)
		}
	}
	// The updates scenario feeds the "updates" table and the -json record.
	var updRows []harness.UpdateRow
	if sel("updates") || *jsonTo != "" {
		var err error
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running updates scenario over ranks %s...\n", *uRanks)
		}
		so := harness.StartRuntimeObs(nil)
		updRows, err = harness.RunUpdates(specs, parseInts(*uRanks), *uBatch, *uCount, cfg)
		runtimeStats = append(runtimeStats, so.Stop("updates"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: updates scenario: %v\n", err)
			os.Exit(1)
		}
	}
	// The concurrent scenario feeds the "concurrent" table and the -json
	// record. It measures one dataset (the first spec) at a fixed rank
	// count across a schedule of reader counts. Its resident clusters
	// publish into one shared registry, so this scenario's runtime record
	// also carries the metric deltas (queries, epochs, coalescing, kernel
	// counters) of the whole reader/writer run.
	var concRows []harness.ConcurrentRow
	if sel("concurrent") || *jsonTo != "" {
		var err error
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running concurrent scenario (ranks %d, readers %s, %d writers)...\n",
				*cRanks, *cReaders, *cWriters)
		}
		reg := obs.NewRegistry()
		so := harness.StartRuntimeObs(reg)
		concRows, err = harness.RunConcurrent(specs[0], *cRanks, *cWriters, *cBatch, *cQueries, parseInts(*cReaders), reg)
		runtimeStats = append(runtimeStats, so.Stop("concurrent"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: concurrent scenario: %v\n", err)
			os.Exit(1)
		}
	}
	// The growth scenario feeds the "growth" table and the -json record:
	// the elastic vertex space absorbing arrival streams, with the
	// overflow-fraction sweep and the fold cost.
	var growthRows []harness.GrowthRow
	if sel("growth") || *jsonTo != "" {
		var err error
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running growth scenario over ranks %s...\n", *gRanks)
		}
		so := harness.StartRuntimeObs(nil)
		growthRows, err = harness.RunGrowth(specs, parseInts(*gRanks), *gBatch, *gBatches, cfg)
		runtimeStats = append(runtimeStats, so.Stop("growth"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: growth scenario: %v\n", err)
			os.Exit(1)
		}
	}
	// The kernel scenario feeds the "kernel" table and the -json record:
	// worker-count × intersection-mode sweep over one resident state.
	var kernelRows []harness.KernelRow
	if sel("kernel") || *jsonTo != "" {
		sched := harness.KernelThreadSchedule()
		if *kThreads != "" {
			sched = parseInts(*kThreads)
		}
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running kernel scenario (ranks %d, threads %v)...\n", *kRanks, sched)
		}
		var err error
		so := harness.StartRuntimeObs(nil)
		kernelRows, err = harness.RunKernel(specs[0], *kRanks, sched, cfg)
		runtimeStats = append(runtimeStats, so.Stop("kernel"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: kernel scenario: %v\n", err)
			os.Exit(1)
		}
	}
	// The maintenance scenario feeds the "maintenance" table and the -json
	// record: durable clusters absorbing churn batches, measuring how much
	// preprocessing work the incremental rebuild and how many bytes the
	// delta snapshot save over their full-cost counterparts at each churn
	// level. Its clusters publish into one shared registry, so the runtime
	// record carries the rebuild/snapshot metric deltas.
	var maintRows []harness.MaintenanceRow
	if sel("maintenance") || *jsonTo != "" {
		churns := parseFloats(*mChurn)
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running maintenance scenario (ranks %d, churn %v)...\n", *mRanks, churns)
		}
		reg := obs.NewRegistry()
		so := harness.StartRuntimeObs(reg)
		var err error
		maintRows, err = harness.RunMaintenance(specs[0], *mRanks, churns, reg)
		runtimeStats = append(runtimeStats, so.Stop("maintenance"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: maintenance scenario: %v\n", err)
			os.Exit(1)
		}
	}
	// The replica scenario feeds the "replica" table and the -json record:
	// a durable primary under one writer's stream with a schedule of
	// WAL-shipping follower counts serving the read workload, reporting
	// aggregate read QPS, primary write throughput, sampled replication lag
	// and the bootstrap-vs-WAL shipping volumes. The primary publishes into
	// one shared registry, so the runtime record carries the shipping and
	// apply metric deltas.
	var replRows []harness.ReplicaRow
	if sel("replica") || *jsonTo != "" {
		fcounts := parseInts(*rFollowers)
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: running replica scenario (ranks %d, followers %v)...\n", *rRanks, fcounts)
		}
		reg := obs.NewRegistry()
		so := harness.StartRuntimeObs(reg)
		var err error
		replRows, err = harness.RunReplica(specs[0], *rRanks, *rBatch, *rReaders, *rQueries, *rRate, *rReadRate, fcounts, reg)
		runtimeStats = append(runtimeStats, so.Stop("replica"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: replica scenario: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonTo != "" {
		f, err := os.Create(*jsonTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
			os.Exit(1)
		}
		if err := harness.WriteBenchJSON(f, rows, updRows, concRows, growthRows, kernelRows, maintRows, replRows, runtimeStats, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: write json: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: close json: %v\n", err)
			os.Exit(1)
		}
		if *detail {
			fmt.Fprintf(os.Stderr, "tcbench: wrote %d scaling + %d update + %d concurrent + %d growth + %d kernel + %d maintenance + %d replica runs to %s\n",
				len(rows), len(updRows), len(concRows), len(growthRows), len(kernelRows), len(maintRows), len(replRows), *jsonTo)
		}
	}
	step("updates", func() error { return harness.TableUpdates(w, updRows) })
	step("replica", func() error { return harness.TableReplica(w, replRows) })
	step("kernel", func() error { return harness.TableKernel(w, kernelRows) })
	step("concurrent", func() error { return harness.TableConcurrent(w, concRows) })
	step("growth", func() error { return harness.TableGrowth(w, growthRows) })
	step("maintenance", func() error { return harness.TableMaintenance(w, maintRows) })
	step("table2", func() error { return harness.Table2(w, rows) })
	step("fig1", func() error { return harness.Figure1(w, rows) })
	step("fig2", func() error { return harness.Figure2(w, rows, specs[1].Name) })
	step("fig3", func() error { return harness.Figure3(w, rows, specs[1].Name) })

	step("table3", func() error { return harness.Table3(w, specs[1], []int{25, 36}, cfg) })
	step("table4", func() error { return harness.Table4(w, specs[1], []int{16, 25, 36}, cfg) })
	step("table5", func() error {
		// Paper: Havoq on 1152 cores vs ours on 169. Same ratio of extra
		// resources is pointless here; run both on the largest schedule
		// entry for a like-for-like comparison.
		p := cfg.Ranks
		if len(p) == 0 {
			p = harness.PaperRanks
		}
		pmax := p[len(p)-1]
		return harness.Table5(w, specs, pmax, pmax, cfg)
	})
	step("table6", func() error {
		p := cfg.Ranks
		if len(p) == 0 {
			p = harness.PaperRanks
		}
		return harness.Table6(w, specs[2], p[len(p)-1], cfg)
	})
	step("probes", func() error {
		pr := cfg.Ranks
		if len(pr) == 0 {
			pr = harness.PaperRanks
		}
		return harness.Probes71(w, []harness.Spec{specs[2], specs[3]}, pr[len(pr)-1], cfg)
	})
	step("ablation", func() error { return harness.Ablation(w, specs[0], parseInts(*abl), cfg) })
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: bad number %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: bad integer %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
