package harness

import (
	"bytes"
	"strings"
	"testing"

	"tc2d/internal/mpi"
)

// tinySpecs are fast enough for unit tests.
func tinySpecs() []Spec {
	return DefaultSpecs(-6) // scales 10, 11, 9, 9
}

func tinyCfg() Config {
	return Config{
		Model: mpi.CostModel{Alpha: 2e-6, Beta: 6e9, Overhead: 5e-7},
		Ranks: []int{4, 9, 16},
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinySpecs()[:2]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Graph", "#triangles", "g500-s11", "g500-s12"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunScalingShapes(t *testing.T) {
	specs := tinySpecs()[:1]
	cfg := tinyCfg()
	rows, err := RunScaling(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Ranks) {
		t.Fatalf("%d rows", len(rows))
	}
	// Baseline row has speedup 1 and expected 1.
	if rows[0].SpeedAll != 1 || rows[0].Expected != 1 {
		t.Errorf("baseline row: %+v", rows[0])
	}
	// Times must be positive and map tasks non-decreasing with ranks
	// (Table 4's redundant-work effect).
	for i, r := range rows {
		if r.PPT <= 0 || r.TCT <= 0 || r.Overall <= 0 {
			t.Errorf("row %d: non-positive times %+v", i, r)
		}
		if i > 0 && r.MapTasks < rows[i-1].MapTasks {
			t.Errorf("map tasks decreased: %d -> %d", rows[i-1].MapTasks, r.MapTasks)
		}
		if r.FracPre < 0 || r.FracPre > 1 || r.FracTCT < 0 || r.FracTCT > 1 {
			t.Errorf("row %d: comm fractions out of range: %+v", i, r)
		}
	}

	var buf bytes.Buffer
	if err := Table2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("table2 missing header")
	}
	buf.Reset()
	if err := Figure1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "eff") {
		t.Error("figure1 missing header")
	}
	buf.Reset()
	if err := Figure2(&buf, rows, specs[0].Name); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kOps/s") {
		t.Error("figure2 missing header")
	}
	buf.Reset()
	if err := Figure3(&buf, rows, specs[0].Name); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "comm %") {
		t.Error("figure3 missing header")
	}
}

func TestTable3LoadImbalance(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, tinySpecs()[0], []int{9, 16}, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "load imbalance") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestTable4TaskGrowth(t *testing.T) {
	var buf bytes.Buffer
	if err := Table4(&buf, tinySpecs()[0], []int{4, 9, 16}, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "task counts") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestTable5HavoqComparison(t *testing.T) {
	var buf bytes.Buffer
	specs := tinySpecs()[:1]
	if err := Table5(&buf, specs, 9, 9, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2core") || !strings.Contains(out, "true") {
		t.Errorf("havoq table (counts must agree):\n%s", out)
	}
}

func TestTable6CrossAlgorithm(t *testing.T) {
	var buf bytes.Buffer
	if err := Table6(&buf, tinySpecs()[2], 9, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Our work", "AOP", "Surrogate", "OPT-PSP"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablation(&buf, tinySpecs()[0], []int{9}, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"doubly-sparse", "early-break", "jik"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConfigModelOverride: the cost model moves modeled time only — a slower
// network leaves the count alone and raises the total time and the
// communication share of the count phase.
func TestConfigModelOverride(t *testing.T) {
	spec := tinySpecs()[0]
	slow, err := RunCore(spec, 4, Config{Model: mpi.CostModel{Alpha: 1e-2, Beta: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunCore(spec, 4, Config{Model: mpi.CostModel{Alpha: 1e-9, Beta: 1e12}})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Triangles != fast.Triangles {
		t.Fatalf("counts differ under cost models: %d vs %d", slow.Triangles, fast.Triangles)
	}
	if slow.TotalTime <= fast.TotalTime {
		t.Errorf("slow network not slower: %v <= %v", slow.TotalTime, fast.TotalTime)
	}
	if slow.CommFracCount <= fast.CommFracCount {
		t.Errorf("slow network comm fraction not larger: %v <= %v", slow.CommFracCount, fast.CommFracCount)
	}
}

func TestRunCoreAggregates(t *testing.T) {
	cfg := tinyCfg()
	cfg.Options.TrackPerShift = true
	agg, err := RunCore(tinySpecs()[0], 9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.MaxKernel < agg.AvgKernel {
		t.Errorf("max %v < avg %v", agg.MaxKernel, agg.AvgKernel)
	}
	if len(agg.MaxShift) != 3 {
		t.Errorf("per-shift aggregates: %v", agg.MaxShift)
	}
	for z := range agg.MaxShift {
		if agg.MaxShift[z] < agg.AvgShift[z]-1e-12 {
			t.Errorf("shift %d: max < avg", z)
		}
	}
}
