package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilTraceInert: the untraced path must never allocate or panic.
func TestNilTraceInert(t *testing.T) {
	var tr *Trace
	if tr.End() != nil || tr.Span() != nil {
		t.Fatal("nil trace must stay nil")
	}
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("child of nil span must be nil")
	}
	s.End()
	s.SetAttr("k", 1)
	if s.Duration() != 0 {
		t.Fatal("nil span duration")
	}
	b, err := json.Marshal(s)
	if err != nil || string(b) != "null" {
		t.Fatalf("nil span marshal: %s %v", b, err)
	}
}

// TestSpanTree builds a small tree, ends it, and checks structure, attrs,
// and JSON shape.
func TestSpanTree(t *testing.T) {
	tr := NewTrace("count")
	if len(tr.ID) != 16 {
		t.Fatalf("trace id %q", tr.ID)
	}
	sched := tr.Span().StartChild("admission")
	sched.End()
	epoch := tr.Span().StartChild("epoch")
	for rank := 0; rank < 2; rank++ {
		rs := epoch.StartChild("rank")
		rs.SetAttr("rank", rank)
		rs.StartChild("shift").End()
		rs.StartChild("kernel").End()
		rs.End()
	}
	epoch.End()
	tr.End()

	if len(findAll(tr.Span(), "admission")) != 1 {
		t.Fatal("admission span missing")
	}
	ranks := findAll(tr.Span(), "rank")
	if len(ranks) != 2 {
		t.Fatalf("rank spans = %d", len(ranks))
	}
	kernels := findAll(tr.Span(), "kernel")
	if len(kernels) != 2 {
		t.Fatalf("kernel spans = %d", len(kernels))
	}

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceID string `json:"trace_id"`
		Root    struct {
			Name       string            `json:"name"`
			DurationMS float64           `json:"duration_ms"`
			Children   []json.RawMessage `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, raw)
	}
	if decoded.TraceID != tr.ID || decoded.Root.Name != "count" {
		t.Fatalf("trace JSON: %s", raw)
	}
	if len(decoded.Root.Children) != 2 {
		t.Fatalf("root children = %d\n%s", len(decoded.Root.Children), raw)
	}
	if decoded.Root.DurationMS < 0 {
		t.Fatalf("negative duration: %s", raw)
	}
}

// TestSpanConcurrentChildren attaches children from concurrent goroutines —
// the per-rank pattern — and requires all of them to land.
func TestSpanConcurrentChildren(t *testing.T) {
	root := NewTrace("epoch").Span()
	const ranks = 16
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := root.StartChild("rank")
			s.SetAttr("rank", r)
			s.StartChild("kernel").End()
			s.End()
		}(r)
	}
	wg.Wait()
	if got := len(findAll(root, "rank")); got != ranks {
		t.Fatalf("rank spans = %d, want %d", got, ranks)
	}
	if got := len(findAll(root, "kernel")); got != ranks {
		t.Fatalf("kernel spans = %d, want %d", got, ranks)
	}
}

// TestSpanEndIdempotent: double End keeps the first end time.
func TestSpanEndIdempotent(t *testing.T) {
	s := NewTrace("x").Span()
	s.End()
	d1 := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d1 {
		t.Fatal("second End moved the end time")
	}
}

// findAll returns every span of s's subtree named name, depth first.
func findAll(s *Span, name string) []*Span {
	var hits []*Span
	if s.Name == name {
		hits = append(hits, s)
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		hits = append(hits, findAll(c, name)...)
	}
	return hits
}
