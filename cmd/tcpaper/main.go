// Command tcpaper regenerates the paper's evaluation — Tables 1–6, Figures
// 1–3, the §7.1 probe counts, the §7.3 ablation — on the simulated runtime.
//
// Usage:
//
//	tcpaper -exp all                      # everything (minutes)
//	tcpaper -exp table2,fig1 -delta -2    # scaling study at smaller scale
//	tcpaper -exp table5 -ranks 16,25,36
//
// -delta shifts every dataset scale (negative = smaller/faster). Everything
// printed is simulator output: times are modeled parallel time from the
// runtime's LogGP-style virtual clocks, not wall-clock, and every exhibit
// says so under its title. Wall-clock measurement of the resident service
// is the job of the one benchmark, bench/ (`bash bench/run.sh`).
//
// -exp probes and the tct rates of Figure 2 count the paper's probes: one
// map lookup per probe-list entry at or above the hashed row's minimum, for
// every intersected pair. (While the kernel sent balanced pairs through a
// sorted merge, those pairs counted none.) Triangle and task counts never
// depended on the routine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tc2d/internal/harness"
	"tc2d/internal/mpi"
)

// run is what the experiments share: the datasets, the harness config, and
// the rank sweep behind Table 2 and Figures 1–3, measured at most once.
type run struct {
	specs    []harness.Spec
	cfg      harness.Config
	ablRanks []int
	rows     []harness.ScalingRow
}

// scaled wraps an exhibit that renders the rank sweep; Figures 2–3 plot dataset.
func scaled(render func(w io.Writer, rows []harness.ScalingRow, dataset string) error) func(io.Writer, *run) error {
	return func(w io.Writer, r *run) error {
		if r.rows == nil {
			rows, err := harness.RunScaling(r.specs, r.cfg)
			if err != nil {
				return fmt.Errorf("scaling sweep: %w", err)
			}
			r.rows = rows
		}
		return render(w, r.rows, r.specs[1].Name)
	}
}

// pmax is the largest entry of the rank schedule. The paper ran Havoq on
// 1152 cores against its own 169; the same ratio of extra resources is
// pointless here, so Tables 5–6 and §7.1 run every algorithm on pmax ranks.
func (r *run) pmax() int { return r.cfg.Ranks[len(r.cfg.Ranks)-1] }

// experiments is the one list of valid -exp names, in the order they print.
var experiments = []struct {
	name string
	run  func(io.Writer, *run) error
}{
	{"table1", func(w io.Writer, r *run) error { return harness.Table1(w, r.specs) }},
	{"table2", scaled(func(w io.Writer, rows []harness.ScalingRow, _ string) error { return harness.Table2(w, rows) })},
	{"fig1", scaled(func(w io.Writer, rows []harness.ScalingRow, _ string) error { return harness.Figure1(w, rows) })},
	{"fig2", scaled(harness.Figure2)},
	{"fig3", scaled(harness.Figure3)},
	{"table3", func(w io.Writer, r *run) error { return harness.Table3(w, r.specs[1], []int{25, 36}, r.cfg) }},
	{"table4", func(w io.Writer, r *run) error { return harness.Table4(w, r.specs[1], []int{16, 25, 36}, r.cfg) }},
	{"table5", func(w io.Writer, r *run) error { return harness.Table5(w, r.specs, r.pmax(), r.pmax(), r.cfg) }},
	{"table6", func(w io.Writer, r *run) error { return harness.Table6(w, r.specs[2], r.pmax(), r.cfg) }},
	{"probes", func(w io.Writer, r *run) error { return harness.Probes71(w, r.specs[2:4], r.pmax(), r.cfg) }},
	{"ablation", func(w io.Writer, r *run) error { return harness.Ablation(w, r.specs[0], r.ablRanks, r.cfg) }},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, " ")
}

// selectExperiments parses the -exp value: comma-separated experiment names,
// or "all". Anything else — a typo, an empty element — is an error naming the
// valid choices, so a misspelt run cannot print nothing and succeed.
func selectExperiments(arg string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(arg, ",") {
		name := strings.TrimSpace(f)
		known := false
		for _, e := range experiments {
			if name == "all" || name == e.name {
				want[e.name] = true
				known = true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q (valid: all %s)", name, experimentNames())
		}
	}
	return want, nil
}

func main() {
	var (
		exps   = flag.String("exp", "all", "comma-separated experiments: all "+experimentNames())
		delta  = flag.Int("delta", 0, "scale delta applied to all datasets (negative = smaller)")
		ranks  = flag.String("ranks", "16,25,36,49,64,81,100,121,144,169", "comma-separated rank schedule (default: the paper's Table 2)")
		alpha  = flag.Float64("alpha", 2e-6, "cost model latency (s)")
		beta   = flag.Float64("beta", 6e9, "cost model bandwidth (B/s)")
		abl    = flag.String("ablation-ranks", "16,100", "rank counts for the ablation study")
		reps   = flag.Int("repeats", 1, "repeat each measured point, keep the fastest (noise reduction)")
		detail = flag.Bool("v", false, "print progress to stderr")
	)
	flag.Parse()

	want, err := selectExperiments(*exps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcpaper: -exp: %v\n", err)
		os.Exit(2)
	}
	r := &run{
		specs:    harness.DefaultSpecs(*delta),
		cfg:      harness.Config{Model: mpi.CostModel{Alpha: *alpha, Beta: *beta, Overhead: 5e-7}, Ranks: parseInts(*ranks), Repeats: *reps},
		ablRanks: parseInts(*abl),
	}

	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		t0 := time.Now()
		if *detail {
			fmt.Fprintf(os.Stderr, "tcpaper: running %s...\n", e.name)
		}
		if err := e.run(os.Stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "tcpaper: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
		if *detail {
			fmt.Fprintf(os.Stderr, "tcpaper: %s done in %v\n", e.name, time.Since(t0).Round(time.Millisecond))
		}
	}
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcpaper: bad integer %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
