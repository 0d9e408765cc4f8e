package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"tc2d/internal/aop"
	"tc2d/internal/dgraph"
	"tc2d/internal/havoq"
	"tc2d/internal/mpi"
	"tc2d/internal/optpsp"
	"tc2d/internal/seqtc"
)

// Table1 regenerates the dataset inventory (paper Table 1): vertices, edges
// and exact triangle counts of every dataset, computed with the sequential
// reference counter.
func Table1(w io.Writer, specs []Spec) error {
	header(w, "Table 1: Datasets used in the experiments.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Graph\t#vertices\t#edges\t#triangles")
	for _, s := range specs {
		g, err := s.Params.Generate(s.Scale, s.EdgeFactor, s.Seed)
		if err != nil {
			return err
		}
		tris := seqtc.Count(g)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", s.Name, g.N, g.NumEdges(), tris)
	}
	return tw.Flush()
}

// ScalingRow is one (dataset, ranks) measurement of Table 2 / Figures 1, 3.
type ScalingRow struct {
	Dataset  string
	Ranks    int
	Expected float64 // expected speedup p/p0
	PPT      float64 // preprocessing parallel seconds
	TCT      float64 // triangle counting parallel seconds
	Overall  float64
	SpeedPPT float64 // relative to the first rank count
	SpeedTCT float64
	SpeedAll float64
	// Figure 2/3 inputs:
	PreOps   int64
	Probes   int64
	FracPre  float64
	FracTCT  float64
	MapTasks int64
}

// RunScaling measures every dataset at every rank count: the data behind
// Table 2, Figure 1, Figure 2 (for one dataset) and Figure 3.
func RunScaling(specs []Spec, cfg Config) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, spec := range specs {
		var base *AggResult
		for _, p := range cfg.Ranks {
			agg, err := RunCore(spec, p, cfg)
			if err != nil {
				return nil, err
			}
			if base == nil {
				base = agg
			}
			p0 := float64(base.Ranks)
			rows = append(rows, ScalingRow{
				Dataset:  spec.Name,
				Ranks:    p,
				Expected: float64(p) / p0,
				PPT:      agg.PreprocessTime,
				TCT:      agg.CountTime,
				Overall:  agg.TotalTime,
				SpeedPPT: base.PreprocessTime / agg.PreprocessTime,
				SpeedTCT: base.CountTime / agg.CountTime,
				SpeedAll: base.TotalTime / agg.TotalTime,
				PreOps:   agg.PreOps,
				Probes:   agg.Probes,
				FracPre:  agg.CommFracPre,
				FracTCT:  agg.CommFracCount,
				MapTasks: agg.MapTasks,
			})
		}
	}
	return rows, nil
}

// Table2 renders the scaling measurements in the layout of the paper's
// Table 2.
func Table2(w io.Writer, rows []ScalingRow) error {
	header(w, "Table 2: Parallel performance (modeled parallel seconds) across MPI ranks.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "dataset\tranks\texpected\tppt\tppt\ttct\ttct\toverall\toverall\t")
	fmt.Fprintln(tw, "\t\tspeedup\ttime\tspeedup\ttime\tspeedup\truntime\tspeedup\t")
	prev := ""
	for _, r := range rows {
		name := ""
		if r.Dataset != prev {
			name = r.Dataset
			prev = r.Dataset
		}
		if r.Expected == 1 {
			fmt.Fprintf(tw, "%s\t%d\t\t%s\t\t%s\t\t%s\t\t\n",
				name, r.Ranks, fmtSecs(r.PPT), fmtSecs(r.TCT), fmtSecs(r.Overall))
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%s\t%.2f\t%s\t%.2f\t%s\t%.2f\t\n",
			name, r.Ranks, r.Expected,
			fmtSecs(r.PPT), r.SpeedPPT,
			fmtSecs(r.TCT), r.SpeedTCT,
			fmtSecs(r.Overall), r.SpeedAll)
	}
	return tw.Flush()
}

// Table3 regenerates the per-shift load-imbalance analysis (paper Table 3):
// maximum vs average kernel compute time over ranks, per dataset run.
func Table3(w io.Writer, spec Spec, rankList []int, cfg Config) error {
	header(w, "Table 3: %s maximum kernel runtime and load imbalance per shift.", spec.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "ranks\tmax kernel s\tavg kernel s\tload imbalance\t")
	cfg.Options.TrackPerShift = true
	for _, p := range rankList {
		agg, err := RunCore(spec, p, cfg)
		if err != nil {
			return err
		}
		imb := 0.0
		if agg.AvgKernel > 0 {
			imb = agg.MaxKernel / agg.AvgKernel
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\t\n", p, fmtSecs(agg.MaxKernel), fmtSecs(agg.AvgKernel), imb)
	}
	return tw.Flush()
}

// Table4 regenerates the redundant-work analysis (paper Table 4): map-based
// intersection task counts as the grid grows.
func Table4(w io.Writer, spec Spec, rankList []int, cfg Config) error {
	header(w, "Table 4: %s task count growth with respect to the number of ranks.", spec.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "ranks\ttask counts\tincrease vs previous\t")
	var prev int64
	for _, p := range rankList {
		agg, err := RunCore(spec, p, cfg)
		if err != nil {
			return err
		}
		if prev == 0 {
			fmt.Fprintf(tw, "%d\t%d\t\t\n", p, agg.MapTasks)
		} else {
			fmt.Fprintf(tw, "%d\t%d\t%+.0f%%\t\n", p, agg.MapTasks,
				100*(float64(agg.MapTasks)/float64(prev)-1))
		}
		prev = agg.MapTasks
	}
	return tw.Flush()
}

// Table5 regenerates the Havoq comparison (paper Table 5): the baseline's
// 2-core and wedge-counting phase times against our triangle counting time,
// on the same runtime and cost model.
func Table5(w io.Writer, specs []Spec, pOurs, pHavoq int, cfg Config) error {
	header(w, "Table 5: Havoq-style wedge counting (%d ranks) vs our tct (%d ranks), modeled seconds.",
		pHavoq, pOurs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "dataset\t2core\twedge count\thavoq total\tour tct\tspeedup\ttriangles agree\t")
	for _, spec := range specs {
		hres, err := runHavoq(spec, pHavoq, cfg)
		if err != nil {
			return err
		}
		ours, err := RunCore(spec, pOurs, cfg)
		if err != nil {
			return err
		}
		speed := hres.TotalTime / ours.CountTime
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.1f\t%v\t\n",
			spec.Name, fmtSecs(hres.TwoCoreTime), fmtSecs(hres.WedgeTime),
			fmtSecs(hres.TotalTime), fmtSecs(ours.CountTime), speed,
			hres.Triangles == ours.Triangles)
	}
	return tw.Flush()
}

func runHavoq(spec Spec, p int, cfg Config) (*havoq.Result, error) {
	results, err := mpi.Run(p, cfg.mpiConfig(), func(c *mpi.Comm) (any, error) {
		in, err := spec.Input().Build(c)
		if err != nil {
			return nil, err
		}
		return havoq.Count(c, in, havoq.Options{})
	})
	if err != nil {
		return nil, fmt.Errorf("harness: havoq %s on %d ranks: %w", spec.Name, p, err)
	}
	return results[0].(*havoq.Result), nil
}

// Table6 regenerates the cross-algorithm comparison on the twitter stand-in
// (paper Table 6): our algorithm against AOP, Surrogate and OPT-PSP, all on
// the identical runtime (a fairer setting than the paper's, which quoted
// runtimes from different machines).
func Table6(w io.Writer, spec Spec, p int, cfg Config) error {
	header(w, "Table 6: %s runtime (modeled seconds, %d ranks) across distributed algorithms.",
		spec.Name, p)
	ours, err := RunCore(spec, p, cfg)
	if err != nil {
		return err
	}

	type entry struct {
		name string
		time float64
		tris int64
	}
	entries := []entry{{"Our work (2D)", ours.TotalTime, ours.Triangles}}

	run1D := func(name string, fn func(*mpi.Comm, *dgraph.Dist1D) (float64, int64, error)) error {
		results, err := mpi.Run(p, cfg.mpiConfig(), func(c *mpi.Comm) (any, error) {
			in, err := spec.Input().Build(c)
			if err != nil {
				return nil, err
			}
			t, tris, err := fn(c, in)
			if err != nil {
				return nil, err
			}
			return entry{name, t, tris}, nil
		})
		if err != nil {
			return fmt.Errorf("harness: %s: %w", name, err)
		}
		entries = append(entries, results[0].(entry))
		return nil
	}
	if err := run1D("AOP (1D overlap)", func(c *mpi.Comm, in *dgraph.Dist1D) (float64, int64, error) {
		r, err := aop.CountAOP(c, in)
		if err != nil {
			return 0, 0, err
		}
		return r.TotalTime, r.Triangles, nil
	}); err != nil {
		return err
	}
	if err := run1D("Surrogate (1D push)", func(c *mpi.Comm, in *dgraph.Dist1D) (float64, int64, error) {
		r, err := aop.CountSurrogate(c, in)
		if err != nil {
			return 0, 0, err
		}
		return r.TotalTime, r.Triangles, nil
	}); err != nil {
		return err
	}
	if err := run1D("OPT-PSP (1D blocked)", func(c *mpi.Comm, in *dgraph.Dist1D) (float64, int64, error) {
		r, err := optpsp.Count(c, in, optpsp.Options{})
		if err != nil {
			return 0, 0, err
		}
		return r.TotalTime, r.Triangles, nil
	}); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "algorithm\truntime\tvs ours\ttriangles\t")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%s\t%.2fx\t%d\t\n", e.name, fmtSecs(e.time), e.time/ours.TotalTime, e.tris)
	}
	return tw.Flush()
}
