package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"tc2d/internal/harness"
)

// simLabel is what every exhibit must say about its own numbers.
var simLabel = regexp.MustCompile(`modeled .*not wall-clock`)

// TestEveryExperimentRunsLabelled walks the experiment list at toy scale:
// each one runs, prints a table under its title, and labels itself as
// simulator output.
func TestEveryExperimentRunsLabelled(t *testing.T) {
	r := &run{
		specs:    harness.DefaultSpecs(-6),
		cfg:      harness.Config{Ranks: []int{4, 9}},
		ablRanks: []int{4},
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.run(&buf, r); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !simLabel.MatchString(out) {
				t.Errorf("no simulator-output label in:\n%s", out)
			}
			// Title, label, blank line, column header, at least one row.
			if n := strings.Count(out, "\n"); n < 5 {
				t.Errorf("only %d lines of output:\n%s", n, out)
			}
		})
	}
}

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want []string // nil = error
	}{
		{"all", strings.Fields(experimentNames())},
		{"table2, fig3,table2", []string{"table2", "fig3"}},
		{"probes,all", strings.Fields(experimentNames())},
		{"tabel2", nil},
		{"table1,none", nil},
		{"table1,", nil},
		{"", nil},
	} {
		got, err := selectExperiments(tc.arg)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-exp %q: accepted as %v", tc.arg, got)
			} else if !strings.Contains(err.Error(), experimentNames()) {
				t.Errorf("-exp %q: error does not list the valid names: %v", tc.arg, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.arg, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("-exp %q: selected %v, want %v", tc.arg, got, tc.want)
		}
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("-exp %q: %s not selected", tc.arg, name)
			}
		}
	}
}
