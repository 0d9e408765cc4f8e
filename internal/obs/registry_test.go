package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent drives a counter from many goroutines and requires
// the final value to be bit-exact — the CAS loop must not lose increments.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("obs_test_total", "test counter")
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %v, want %d", got, workers*per)
	}
}

// TestConcurrentSnapshot races Snapshot/Expose against live mutation: the
// point is that -race stays quiet and every observed value is one the
// counter actually passed through (monotone). The root package's
// TestExposeParsesWhileMutating parses the payloads such a race exposes.
func TestConcurrentSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("obs_snap_total", "t")
	h := r.Histogram("obs_snap_seconds", "t", DurationBuckets)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.Inc()
			h.Observe(0.01)
		}
	}()
	var last float64
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		v := snap["obs_snap_total"]
		if v < last {
			t.Fatalf("snapshot went backwards: %v after %v", v, last)
		}
		last = v
		if _, err := r.Expose(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if got := c.Value(); got != 5000 {
		t.Fatalf("counter = %v, want 5000", got)
	}
}

// TestHistogramBoundaries pins the le semantics: a value exactly on a bound
// counts in that bucket, just above goes to the next, and the +Inf bucket
// always equals _count.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("obs_bounds", "t", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 5.1, 100} {
		h.Observe(v)
	}
	// Non-cumulative per-bucket expectations:
	// (≤1): 0.5, 1  → 2 ; (≤2): 1.0000001, 2 → 2 ; (≤5): 5 → 1 ; +Inf: 5.1, 100 → 2
	want := []int64{2, 2, 1, 2}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 5 + 5.1 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted buckets")
		}
	}()
	r := NewRegistry()
	r.Histogram("bad", "t", []float64{1, 1})
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative counter add")
		}
	}()
	NewRegistry().Counter("c_total", "t").Add(-1)
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("same_name", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("same_name", "t")
}

// TestLabeledSeries checks label order insensitivity and distinctness.
func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "t", L("op", "count"), L("mode", "read"))
	b := r.Counter("ops_total", "t", L("mode", "read"), L("op", "count"))
	if a != b {
		t.Fatal("label order should resolve to the same series")
	}
	c := r.Counter("ops_total", "t", L("op", "update"), L("mode", "write"))
	if a == c {
		t.Fatal("distinct label sets must be distinct series")
	}
	a.Add(3)
	c.Inc()
	snap := r.Snapshot()
	if snap[`ops_total{mode="read",op="count"}`] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[`ops_total{mode="write",op="update"}`] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestNilRegistry: the disabled path must be fully inert.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "t").Inc()
	r.Gauge("x", "t").Set(3)
	r.Histogram("x_seconds", "t", nil).Observe(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var sb strings.Builder
	n, err := r.Expose(&sb)
	if n != 0 || err != nil || sb.Len() != 0 {
		t.Fatal("nil registry must expose nothing")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("zero denominator must yield 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("ratio arithmetic")
	}
}

// TestExpositionGolden pins the exact text Expose emits for a small,
// deterministic registry.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("tc_queries_total", "Queries served.", L("op", "count")).Add(4)
	r.Counter("tc_queries_total", "Queries served.", L("op", "update")).Add(1)
	r.Gauge("tc_graph_vertices", "Resident vertex count.").Set(1024)
	h := r.Histogram("tc_query_seconds", "Query latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2.5)

	const golden = `# HELP tc_queries_total Queries served.
# TYPE tc_queries_total counter
tc_queries_total{op="count"} 4
tc_queries_total{op="update"} 1
# HELP tc_graph_vertices Resident vertex count.
# TYPE tc_graph_vertices gauge
tc_graph_vertices 1024
# HELP tc_query_seconds Query latency.
# TYPE tc_query_seconds histogram
tc_query_seconds_bucket{le="0.01"} 1
tc_query_seconds_bucket{le="0.1"} 3
tc_query_seconds_bucket{le="1"} 3
tc_query_seconds_bucket{le="+Inf"} 4
tc_query_seconds_sum 2.605
tc_query_seconds_count 4
`
	var sb strings.Builder
	n, err := r.Expose(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != golden {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), golden)
	}
	// 2 counters + 1 gauge + (4 buckets + sum + count)
	if n != 9 {
		t.Fatalf("series lines = %d, want 9", n)
	}
}

// TestLabeledHistogramExposition checks the le label merges with series
// labels and each labeled series gets its own _count.
func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_seconds", "t", []float64{0.1}, L("op", "count")).Observe(0.05)
	r.Histogram("lat_seconds", "t", nil, L("op", "update")).Observe(5)
	var sb strings.Builder
	if _, err := r.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{`lat_seconds_bucket{op="count",le="0.1"} 1`, `lat_seconds_count{op="update"} 1`} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition lacks %s:\n%s", line, sb.String())
		}
	}
}
