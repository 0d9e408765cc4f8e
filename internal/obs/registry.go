// Package obs is the observability substrate of the tc2d stack: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms, named and optionally labeled, safe for concurrent use) plus a
// structured trace model (per-query trace ids and span trees; see trace.go).
//
// Every layer of the stack emits into a Registry — the mpi runtime publishes
// per-rank epoch stats, the cluster scheduler its queue and coalescing
// accounting, the counting kernel its step/probe/task counters, and the
// durability layer its WAL and snapshot I/O costs
// — and the tcd daemon exposes the result in the Prometheus text exposition
// format (v0.0.4) at GET /metrics.
//
// Design constraints, in order: correctness under concurrency (all mutation
// is atomic; Snapshot and Expose observe a consistent per-series value),
// then hot-path cost (instrumented code holds pre-resolved *Counter /
// *Histogram handles — registration happens once, observation is one or two
// atomic operations, and a nil Registry disables everything), then zero
// dependencies (stdlib only, so any internal package may import it).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind int

// Metric family kinds, matching the Prometheus TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "counter"
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// family is one named metric family: a help string, a kind, and the series
// registered under it (one per distinct label set).
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label signature → *Counter / *Gauge / *Histogram
	order  []string       // registration order, for deterministic exposition
}

// Registry holds metric families. The zero value is not usable; create with
// NewRegistry. All methods are safe for concurrent use. A nil *Registry is a
// valid "metrics disabled" registry: its getters return nil handles, and all
// handle methods are nil-safe no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey serializes a label set into the map key and exposition fragment.
// Labels are sorted by name so the same set always resolves to the same
// series regardless of argument order.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getFamily returns the named family, creating it with the given kind/help
// on first use. Re-registering with a different kind panics — that is a
// programming error two call sites cannot both be right about.
func (r *Registry) getFamily(name, help string, kind Kind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]any)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	return f
}

// series resolves one labeled series of f, creating it with mk on first use.
func (f *family) getSeries(labels []Label, mk func() any) any {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter series for name+labels, registering the family
// (with its help text) on first use. Counters are monotonically
// non-decreasing float64 values. A nil registry returns a nil (no-op)
// handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindCounter, nil)
	return f.getSeries(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name+labels, registering the family on
// first use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindGauge, nil)
	return f.getSeries(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram series for name+labels with the given
// bucket upper bounds (ascending; the +Inf bucket is implicit), registering
// the family on first use. The first registration's buckets win; later calls
// may pass nil. A nil registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindHistogram, buckets)
	return f.getSeries(labels, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Counter is a monotonically non-decreasing float64. The zero value is ready
// to use; all methods are safe for concurrent use and nil-safe.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v (negative v panics — counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 {
		panic("obs: counter decremented")
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use and nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative exposition,
// like Prometheus: bucket i counts observations ≤ bound i, with an implicit
// +Inf bucket). Observation is lock-free: one atomic add on the owning
// bucket, one CAS loop on the sum. The total count is the sum of the buckets
// — never a separate atomic — so a reader racing Observe always sees _count
// equal to the +Inf bucket. All methods are nil-safe.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // per-bucket (non-cumulative) counts; last = +Inf
	sumBits atomic.Uint64
}

// DurationBuckets is the default latency bucket schedule (seconds): 100µs to
// ~100s in roughly 3× steps — wide enough for both a sub-millisecond kernel
// step and a multi-second rebuild.
var DurationBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// SizeBuckets is the default byte-size bucket schedule: 1KiB to 1GiB in
// 8× steps.
var SizeBuckets = []float64{
	1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28, 1 << 30,
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", bounds))
		}
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation. A value exactly on a bucket boundary
// lands in that bucket (Prometheus "le" semantics: bucket counts v ≤ bound).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Snapshot returns every series' current value as a flat map: plain
// "name{labels}" → value for counters and gauges; histograms contribute
// "name_count{labels}" and "name_sum{labels}". The benchmark (bench/)
// records deltas of these maps across a traced pass.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		for _, key := range f.order {
			id := f.name
			if key != "" {
				id += "{" + key + "}"
			}
			switch s := f.series[key].(type) {
			case *Counter:
				out[id] = s.Value()
			case *Gauge:
				out[id] = s.Value()
			case *Histogram:
				suffix := ""
				if key != "" {
					suffix = "{" + key + "}"
				}
				out[f.name+"_count"+suffix] = float64(s.Count())
				out[f.name+"_sum"+suffix] = s.Sum()
			}
		}
		f.mu.Unlock()
	}
	return out
}

// Expose writes the registry in the Prometheus text exposition format
// v0.0.4: families in registration order, each with its # HELP and # TYPE
// lines, series in registration order, histograms as cumulative _bucket
// series plus _sum and _count. Returns the number of value lines written.
func (r *Registry) Expose(w io.Writer) (series int, err error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			switch s := f.series[key].(type) {
			case *Counter:
				writeSeries(&b, f.name, key, "", s.Value())
				series++
			case *Gauge:
				writeSeries(&b, f.name, key, "", s.Value())
				series++
			case *Histogram:
				var cum int64
				for i, bound := range s.bounds {
					cum += s.counts[i].Load()
					writeSeries(&b, f.name+"_bucket", key, fmt.Sprintf(`le="%s"`, formatFloat(bound)), float64(cum))
					series++
				}
				cum += s.counts[len(s.bounds)].Load()
				writeSeries(&b, f.name+"_bucket", key, `le="+Inf"`, float64(cum))
				writeSeries(&b, f.name+"_sum", key, "", s.Sum())
				writeSeries(&b, f.name+"_count", key, "", float64(cum))
				series += 3
			}
		}
		f.mu.Unlock()
	}
	_, err = io.WriteString(w, b.String())
	return series, err
}

// writeSeries emits one exposition line, merging the series' label signature
// with an extra (histogram le) label.
func writeSeries(b *strings.Builder, name, key, extra string, v float64) {
	b.WriteString(name)
	if key != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(key)
		if key != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a value the way Prometheus expects: integral values
// without a decimal point, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Ratio guards a division against a zero denominator — the shared helper
// for coalescing factors and merge fractions reported by tcd (bench/, the
// successor of the old tcbench reports, computes its ratios itself).
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
