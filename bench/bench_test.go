package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"tc2d"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{120, 90}, // p95 would leave 6 samples beyond it
		{100, 90}, // exactly ten beyond
		{99, 75},  // p90 would leave nine
		{24, 50},
		{1000, 99},
		{5, 50}, // too few for any tail: the median is all there is
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps span 2 on [30,40)
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 130}, // runs past its parent: clipped to [90,100)
		{ID: 5, Parent: 2, StartNS: 15, EndNS: 20},  // grandchild: only span 2 pays for it
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestImportObsLaysRanksSideBySide(t *testing.T) {
	tree := &obsNode{Name: "epoch", DurationMS: 10, Children: []*obsNode{
		{Name: "rank", DurationMS: 8, Attrs: map[string]any{"rank": 0.0}, Children: []*obsNode{
			{Name: "align", DurationMS: 1}, {Name: "kernel", DurationMS: 5},
		}},
		{Name: "rank", DurationMS: 9, Attrs: map[string]any{"rank": 1.0}},
	}}
	rec := newRecorder()
	rec.importObs(0, "read", "tc2d", tree, 1000, -1)
	got := map[string][2]int64{}
	for _, s := range rec.spans {
		got[s.Name+string(rune('0'+max(s.Rank, 0)))] = [2]int64{s.StartNS, s.EndNS}
	}
	want := map[string][2]int64{
		"epoch0":  {1000, 1000 + 10e6},
		"rank0":   {1000, 1000 + 8e6},
		"rank1":   {1000, 1000 + 9e6},
		"align0":  {1000, 1000 + 1e6},
		"kernel0": {1000 + 1e6, 1000 + 6e6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("imported spans %v, want %v", got, want)
	}
	if ms := rec.selfByName(1)["rank"]; ms != 2+9 {
		t.Errorf("rank self time %g ms, want 11 (2 unattributed on rank 0, all 9 on rank 1)", ms)
	}
}

// replay checks a stream against a mirror kept here, independently of the
// stream's own: every delete must name a present edge, every insert an
// absent one, and no batch may name an edge twice.
func replay(t *testing.T, g *tc2d.Graph, s *stream, batches int, hot map[int32]bool) [][]tc2d.EdgeUpdate {
	t.Helper()
	present := map[uint64]bool{}
	for _, e := range g.Edges() {
		present[edgeKey(e.U, e.V)] = true
	}
	var all [][]tc2d.EdgeUpdate
	for b := 0; b < batches; b++ {
		batch := s.next()
		if len(batch) != batchSize {
			t.Fatalf("batch %d has %d updates, want %d", b, len(batch), batchSize)
		}
		seen := map[uint64]bool{}
		for _, u := range batch {
			k := edgeKey(u.U, u.V)
			if seen[k] {
				t.Fatalf("batch %d names edge (%d,%d) twice", b, u.U, u.V)
			}
			seen[k] = true
			if hot != nil && (!hot[u.U] || !hot[u.V]) {
				t.Fatalf("batch %d: (%d,%d) leaves the hot set", b, u.U, u.V)
			}
			switch {
			case u.U == u.V:
				t.Fatalf("batch %d holds the self loop %d", b, u.U)
			case u.Op == tc2d.UpdateDelete && !present[k]:
				t.Fatalf("batch %d deletes absent edge (%d,%d)", b, u.U, u.V)
			case u.Op == tc2d.UpdateInsert && present[k]:
				t.Fatalf("batch %d inserts present edge (%d,%d)", b, u.U, u.V)
			}
			present[k] = u.Op == tc2d.UpdateInsert
		}
		all = append(all, batch)
	}
	mirror, err := s.graph()
	if err != nil {
		t.Fatal(err)
	}
	var left int64
	for _, p := range present {
		if p {
			left++
		}
	}
	if mirror.NumEdges() != left {
		t.Fatalf("the stream's mirror holds %d edges, the independent one %d", mirror.NumEdges(), left)
	}
	for _, e := range mirror.Edges() {
		if !present[edgeKey(e.U, e.V)] {
			t.Fatalf("the stream's mirror holds (%d,%d), the independent one does not", e.U, e.V)
		}
	}
	return all
}

func TestStreamIsDeterministicAndOnlyEffective(t *testing.T) {
	g, err := genGraph("rmat", 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, hotFrac := range []float64{0, 0.1} {
		s := newStream(g, 7, hotFrac)
		var hot map[int32]bool
		if hotFrac > 0 {
			hot = map[int32]bool{}
			for _, v := range s.cand {
				hot[v] = true
			}
			if len(hot) != int(hotFrac*float64(g.N)) {
				t.Fatalf("hot set has %d distinct vertices, want %d", len(hot), int(hotFrac*float64(g.N)))
			}
		}
		first := replay(t, g, s, 40, hot)
		again := replay(t, g, newStream(g, 7, hotFrac), 40, hot)
		if !reflect.DeepEqual(first, again) {
			t.Errorf("hot=%g: the same seed gave two different streams", hotFrac)
		}
		other := replay(t, g, newStream(g, 8, hotFrac), 40, nil)
		if reflect.DeepEqual(first, other) {
			t.Errorf("hot=%g: two seeds gave the same stream", hotFrac)
		}
	}
}

func TestGraphsAreDeterministic(t *testing.T) {
	for _, kind := range []string{"rmat", "er"} {
		a, err := genGraph(kind, 9, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genGraph(kind, 9, 3)
		c, _ := genGraph(kind, 9, 4)
		if !reflect.DeepEqual(a.Adj, b.Adj) {
			t.Errorf("%s: the same seed gave two different graphs", kind)
		}
		if reflect.DeepEqual(a.Adj, c.Adj) {
			t.Errorf("%s: two seeds gave the same graph", kind)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestNamesAreWellFormedAndAgreeWithBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
		if fixedOps(&w, 10) == (limit{}) {
			t.Errorf("workload %s has no fixed-count pass", w.Name)
		}
	}
	for _, d := range append(append([]metric{}, endToEndMetrics...), perLayerMetrics...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndMetrics {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || len(doc.Command) == 0 {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEndMetrics) || len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; metrics.go %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, metrics.go %s / %s", i, got, w.Name, w.Why)
		}
	}
	for i, d := range endToEndMetrics {
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, metrics.go %+v", i, got, d)
		}
	}
	for i, d := range perLayerMetrics {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, metrics.go %+v", i, got, d)
		}
	}
}
