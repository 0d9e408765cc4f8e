// Package harness holds the drivers behind cmd/tcpaper: they regenerate
// every table and figure of the paper's evaluation section at a scale this
// host can hold, and nothing else:
//
//	Table 1  — dataset inventory                     (Table1)
//	Table 2  — ppt/tct/overall scaling, 16–169 ranks (Table2)
//	Figure 1 — efficiency curves per dataset         (Figure1)
//	Figure 2 — operation rates of ppt and tct        (Figure2)
//	Table 3  — per-shift load imbalance              (Table3)
//	Table 4  — redundant-work task counts            (Table4)
//	Figure 3 — communication time fraction           (Figure3)
//	§7.3     — optimization ablations                (Ablation)
//	Table 5  — comparison against Havoq              (Table5)
//	Table 6  — comparison against 1D algorithms      (Table6)
//	§7.1     — probe-count comparison                (Probes71)
//
// Everything here is simulator output. Times are modeled parallel time (the
// runtime's virtual clocks): compute sections are measured on dedicated
// slots and communication is charged by the LogGP-style cost model, so the
// scaling shape is meaningful even with more ranks than physical cores, but
// no figure is a wall-clock measurement of this host — every exhibit says
// so under its title (simNote). Wall-clock numbers for the resident service
// come from the benchmark in bench/.
package harness

import (
	"fmt"
	"io"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// Spec names one dataset of the evaluation.
type Spec struct {
	Name       string
	Params     rmat.Params
	Scale      int
	EdgeFactor int
	Seed       uint64
}

// Input returns the distributed input builder for the dataset.
func (s Spec) Input() dgraph.Input {
	return dgraph.RMATInput{Params: s.Params, Scale: s.Scale, EdgeFactor: s.EdgeFactor, Seed: s.Seed}
}

// DefaultSpecs returns the scaled-down stand-ins for the paper's Table 1
// datasets: two Graph500 RMAT instances (for g500-s28/s29), a heavy-skew
// graph (twitter) and a near-uniform graph (friendster). scaleDelta shifts
// all scales, e.g. -3 for quick benchmark runs; dataset names reflect the
// actual scale.
func DefaultSpecs(scaleDelta int) []Spec {
	return []Spec{
		{Name: fmt.Sprintf("g500-s%d", 17+scaleDelta), Params: rmat.G500, Scale: 17 + scaleDelta, EdgeFactor: 16, Seed: 26},
		{Name: fmt.Sprintf("g500-s%d", 18+scaleDelta), Params: rmat.G500, Scale: 18 + scaleDelta, EdgeFactor: 16, Seed: 27},
		{Name: fmt.Sprintf("twitterish-s%d", 16+scaleDelta), Params: rmat.Twitterish, Scale: 16 + scaleDelta, EdgeFactor: 24, Seed: 11},
		{Name: fmt.Sprintf("friendsterish-s%d", 16+scaleDelta), Params: rmat.Friendsterish, Scale: 16 + scaleDelta, EdgeFactor: 16, Seed: 17},
	}
}

// Config tunes how experiments execute.
type Config struct {
	// Model is the communication cost model (default: DefaultCostModel).
	Model mpi.CostModel
	// Ranks is the rank schedule for scaling experiments (the paper's
	// Table 2 used 16, 25, …, 169; cmd/tcpaper defaults to that).
	Ranks []int
	// Options are the algorithm options applied to core runs.
	Options core.Options
	// Repeats re-runs every measured point this many times and keeps the
	// run with the smallest total time (the least OS-noise-contaminated
	// measurement). Default 1.
	Repeats int
}

func (c Config) repeats() int {
	if c.Repeats < 1 {
		return 1
	}
	return c.Repeats
}

func (c Config) model() mpi.CostModel {
	if c.Model == (mpi.CostModel{}) {
		return mpi.DefaultCostModel()
	}
	return c.Model
}

// mpiConfig builds the runtime config for measured runs: one compute slot so
// virtual-time measurements are contention-free.
func (c Config) mpiConfig() mpi.Config {
	return mpi.Config{Model: c.model(), ComputeSlots: 1}
}

// AggResult is one measured distributed run: rank 0's Result plus cross-rank
// kernel-time aggregates for the load-imbalance analysis.
type AggResult struct {
	core.Result
	Ranks     int
	MaxKernel float64 // max over ranks of local kernel compute time
	AvgKernel float64 // average over ranks
	MaxShift  []float64
	AvgShift  []float64
}

// RunCore executes one measured run of the 2D algorithm, repeating per
// Config.Repeats and keeping the least-noisy (fastest) run.
func RunCore(spec Spec, p int, cfg Config) (*AggResult, error) {
	var best *AggResult
	for rep := 0; rep < cfg.repeats(); rep++ {
		agg, err := runCoreOnce(spec, p, cfg)
		if err != nil {
			return nil, err
		}
		if best == nil || agg.TotalTime < best.TotalTime {
			best = agg
		}
	}
	return best, nil
}

func runCoreOnce(spec Spec, p int, cfg Config) (*AggResult, error) {
	opt := cfg.Options
	results, err := mpi.Run(p, cfg.mpiConfig(), func(c *mpi.Comm) (any, error) {
		in, err := spec.Input().Build(c)
		if err != nil {
			return nil, err
		}
		return core.Count(c, in, opt)
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %d ranks: %w", spec.Name, p, err)
	}
	agg := &AggResult{Result: *(results[0].(*core.Result)), Ranks: p}
	var sum float64
	for _, r := range results {
		res := r.(*core.Result)
		if res.LocalKernelTime > agg.MaxKernel {
			agg.MaxKernel = res.LocalKernelTime
		}
		sum += res.LocalKernelTime
		if opt.TrackPerShift {
			if agg.MaxShift == nil {
				agg.MaxShift = make([]float64, len(res.LocalPerShift))
				agg.AvgShift = make([]float64, len(res.LocalPerShift))
			}
			for z, d := range res.LocalPerShift {
				if d > agg.MaxShift[z] {
					agg.MaxShift[z] = d
				}
				agg.AvgShift[z] += d / float64(p)
			}
		}
	}
	agg.AvgKernel = sum / float64(p)
	return agg, nil
}

// fmtSecs renders seconds with adaptive precision, paper-style.
func fmtSecs(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.1f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.6f", s)
	}
}

// simNote is the line under every exhibit's title.
const simNote = "(simulator output: times are modeled parallel time from the LogGP virtual clock, not wall-clock; for wall-clock see bench/)"

// header writes an exhibit's title followed by simNote and a blank line.
func header(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n"+simNote+"\n\n", args...)
}
