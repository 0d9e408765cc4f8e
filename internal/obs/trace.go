package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"
)

// Trace is one query's span tree. A trace is created at the service edge
// (tcd's middleware, or a CountTraced call) and threaded down through the
// scheduler, the epoch runtime, and the per-rank compute steps; every layer
// attaches child spans to whatever span it was handed. A nil *Trace — the
// common, untraced case — disables all of it: every method on a nil Trace or
// nil Span is a no-op, so instrumented code never branches on "is tracing
// on".
type Trace struct {
	ID   string `json:"trace_id"`
	Root *Span  `json:"root"`
}

// NewTrace starts a trace with a fresh random id and a root span named name.
func NewTrace(name string) *Trace {
	return &Trace{ID: NewTraceID(), Root: newSpan(name)}
}

// NewTraceID returns a 16-hex-char random identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed id keeps the
		// trace usable rather than panicking in an observability path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// End closes the root span and returns the trace for chaining.
func (t *Trace) End() *Trace {
	if t == nil {
		return nil
	}
	t.Root.End()
	return t
}

// Span returns the root span (nil-safe).
func (t *Trace) Span() *Span {
	if t == nil {
		return nil
	}
	return t.Root
}

// Span is one timed phase of a trace. Spans nest: StartChild hangs a new
// span under the receiver and is safe to call from concurrent ranks. All
// methods are nil-safe no-ops so untraced call paths cost one pointer test.
type Span struct {
	Name string `json:"name"`

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	attrs    map[string]any
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// StartChild opens a child span under s. Returns nil (a no-op span) when s
// is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Calling End twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Duration returns the span's elapsed time (time since start if still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// spanJSON is the wire form of a span: durations in seconds, children in
// creation order.
type spanJSON struct {
	Name       string           `json:"name"`
	DurationMS float64          `json:"duration_ms"`
	Attrs      map[string]any   `json:"attrs,omitempty"`
	Children   []json.Marshaler `json:"children,omitempty"`
}

// MarshalJSON renders the span subtree. Open spans report duration-so-far.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	out := spanJSON{
		Name:       s.Name,
		DurationMS: float64(end.Sub(s.start)) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c)
	}
	s.mu.Unlock()
	return json.Marshal(out)
}
