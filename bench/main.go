// Command bench is the repository's benchmark: six fixed workloads, wall-clock
// end-to-end metrics measured with tracing off, and a traced run that walks
// the layers for per-layer numbers. See README.md beside this file.
//
// One run, the form BENCHMARK.json's command takes:
//
//	bench -workload read-rmat -seed 1 -seconds 10 -trace 0
//
// The whole suite, both passes of every workload, each in a process of its
// own:
//
//	bench -seed 1 -out results/            # writes results.json + trace-*.json
//	bench -repeat 2 -check-bounds          # the stability criterion
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "run this one workload and print its result line; empty runs the suite")
		seed       = flag.Uint64("seed", 1, "seed of every generated input: graphs, hot set, update batches")
		seconds    = flag.Int("seconds", 10, "length of the measured window")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		out        = flag.String("out", "", "directory for results.json and trace-<workload>.json")
		tmp        = flag.String("tmp", "", "scratch root for persistence directories (default: the system temp dir)")
		only       = flag.String("workloads", "", "suite: comma-separated subset of workloads")
		repeat     = flag.Int("repeat", 1, "suite: run everything this many times")
		check      = flag.Bool("check-bounds", false, "suite: compare the first two repeats against the recorded bounds")
		worker     = flag.String("worker", "", "internal: host ranks for the coordinator at this address")
		workerRank = flag.Int("worker-ranks", 1, "internal: ranks a -worker process hosts")
	)
	flag.Parse()
	if *worker != "" {
		if err := runWorker(*worker, *workerRank); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{seed: *seed, seconds: *seconds, out: *out}
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need at least 1", cfg.seconds))
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fatal(err)
		}
	}
	if *name == "" {
		os.Exit(suite(cfg, *tmp, *only, *repeat, *check))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	os.Exit(single(w, cfg, *tmp, *trace == 1))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// single runs one workload in this process and prints its result line. The
// scratch directory and every worker process are gone when it returns,
// however it returns.
func single(w *workload, cfg config, tmpRoot string, traced bool) int {
	if tmpRoot != "" {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			fatal(err)
		}
	}
	scratch, err := os.MkdirTemp(tmpRoot, "tc2d-bench-")
	if err != nil {
		fatal(err)
	}
	r := &run{w: w, seed: cfg.seed, tmp: scratch}
	cleanup := func() {
		if r.sys != nil {
			r.sys.close()
		}
		os.RemoveAll(scratch)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	defer cleanup()

	var o *outcome
	if traced {
		o, err = layerRun(r, cfg)
	} else {
		o, err = endToEnd(r, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	list := endToEndMetrics
	if traced {
		list = perLayerMetrics
	}
	fmt.Printf("# %s seed=%d seconds=%d trace=%t\n", w.Name, cfg.seed, cfg.seconds, traced)
	for _, line := range o.extras {
		fmt.Println("#", line)
	}
	for _, d := range list {
		fmt.Printf("%-34s %16.6g %s\n", d.Name, o.metrics[d.Name], d.Unit)
	}
	if r.failed > 0 {
		fmt.Printf("# %d of %d operations failed; first: %s\n", r.failed, r.attempted, r.first)
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: o.metrics.report(list)}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if r.failed > 0 {
		return 1
	}
	return 0
}

// selected resolves the -workloads subset.
func selected(only string) ([]*workload, error) {
	var ws []*workload
	if only == "" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
		return ws, nil
	}
	for _, name := range strings.Split(only, ",") {
		w := findWorkload(strings.TrimSpace(name))
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}
