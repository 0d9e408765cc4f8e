package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"tc2d/internal/core"
)

// Ablation regenerates the §7.3 optimization study: the reduction in
// triangle counting time attributable to (i) the doubly-sparse traversal,
// (ii) the direct hashing for sparse rows, (iii) the early-break probe
// traversal, (iv) the single-blob serialization, and (v) the ⟨j,i,k⟩
// enumeration versus ⟨i,j,k⟩ — each measured by disabling just that
// optimization at every rank count in the list.
func Ablation(w io.Writer, spec Spec, rankList []int, cfg Config) error {
	header(w, "Section 7.3: %s tct change when disabling each optimization\n"+
		"(positive %% = the optimization helps; paper: doubly-sparse 10-15%%, hashing 1.2-8.7%%, jik vs ijk 72.8%%).", spec.Name)

	variants := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"doubly-sparse traversal", func(o *core.Options) { o.NoDoublySparse = true }},
		{"direct (AND) hashing", func(o *core.Options) { o.NoDirectHash = true }},
		{"early-break traversal", func(o *core.Options) { o.NoEarlyBreak = true }},
		{"single-blob serialization", func(o *core.Options) { o.NoBlob = true }},
		{"jik enumeration (vs ijk)", func(o *core.Options) { o.Enumeration = core.EnumIJK }},
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "optimization\tranks\ttct with\ttct without\treduction %\t")
	for _, p := range rankList {
		baseline, err := RunCore(spec, p, cfg)
		if err != nil {
			return err
		}
		for _, v := range variants {
			c := cfg
			v.mut(&c.Options)
			res, err := RunCore(spec, p, c)
			if err != nil {
				return err
			}
			if res.Triangles != baseline.Triangles {
				return fmt.Errorf("harness: ablation %q changed the count: %d vs %d",
					v.name, res.Triangles, baseline.Triangles)
			}
			red := 100 * (1 - baseline.CountTime/res.CountTime)
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%.1f\t\n",
				v.name, p, fmtSecs(baseline.CountTime), fmtSecs(res.CountTime), red)
		}
	}
	return tw.Flush()
}
