package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Figure1 renders the efficiency data of the paper's Figure 1 (a)–(d): for
// every dataset, the parallel efficiency p0·T_p0/(p·T_p) of the
// preprocessing phase, the triangle counting phase and the overall runtime,
// relative to the first rank count of the schedule.
func Figure1(w io.Writer, rows []ScalingRow) error {
	header(w, "Figure 1: Efficiency relative to the %d-rank baseline (1.0 = perfect).", firstRanks(rows))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "dataset\tranks\tppt eff\ttct eff\toverall eff\t")
	prev := ""
	for _, r := range rows {
		name := ""
		if r.Dataset != prev {
			name = r.Dataset
			prev = r.Dataset
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t\n", name, r.Ranks,
			r.SpeedPPT/r.Expected, r.SpeedTCT/r.Expected, r.SpeedAll/r.Expected)
	}
	return tw.Flush()
}

func firstRanks(rows []ScalingRow) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Ranks
}

// Figure2 renders the operation-rate data of the paper's Figure 2: the
// aggregate kOps/s achieved by the preprocessing phase (adjacency-entry
// operations) and the triangle counting phase (hash probes) per rank count,
// for one dataset.
func Figure2(w io.Writer, rows []ScalingRow, dataset string) error {
	header(w, "Figure 2: %s operation rate (kOps/s) of ppt and tct phases.", dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "ranks\tppt kOps/s\ttct kOps/s\t")
	for _, r := range rows {
		if r.Dataset != dataset {
			continue
		}
		ppt := float64(r.PreOps) / r.PPT / 1e3
		tct := float64(r.Probes) / r.TCT / 1e3
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t\n", r.Ranks, ppt, tct)
	}
	return tw.Flush()
}

// Figure3 renders the communication-fraction data of the paper's Figure 3:
// the percentage of each phase spent in communication, per rank count, for
// one dataset.
func Figure3(w io.Writer, rows []ScalingRow, dataset string) error {
	header(w, "Figure 3: %s fraction of time spent in communication (%%).", dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "ranks\tppt comm %\ttct comm %\t")
	for _, r := range rows {
		if r.Dataset != dataset {
			continue
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t\n", r.Ranks, 100*r.FracPre, 100*r.FracTCT)
	}
	return tw.Flush()
}
