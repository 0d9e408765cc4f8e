package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Probes71 reproduces the probe-count analysis of the paper's §7.1: "the
// number of probes in twitter is 68% more than that of friendster" explains
// why the denser-triangle graph both does more work and scales better. The
// experiment measures total kernel probes per dataset at a fixed rank count
// and reports each dataset's probes relative to the last (friendster-like)
// dataset.
func Probes71(w io.Writer, specs []Spec, p int, cfg Config) error {
	header(w, "Section 7.1: kernel probe counts at %d ranks (paper: twitter probes ≈ 1.68x friendster's).", p)
	type row struct {
		name   string
		probes int64
		tris   int64
	}
	rows := make([]row, 0, len(specs))
	for _, spec := range specs {
		agg, err := RunCore(spec, p, cfg)
		if err != nil {
			return err
		}
		rows = append(rows, row{spec.Name, agg.Probes, agg.Triangles})
	}
	base := rows[len(rows)-1]
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "dataset\tprobes\ttriangles\tprobes vs "+base.name+"\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2fx\t\n", r.name, r.probes, r.tris,
			float64(r.probes)/float64(base.probes))
	}
	return tw.Flush()
}
