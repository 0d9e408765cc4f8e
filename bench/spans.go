package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, as the harness saw it from outside.
// Spans of one operation share Op; Parent is the span that caused this one
// (0 for a root). Times are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      string `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Rank    int    `json:"rank"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps the traced pass's spans in memory; write dumps them once,
// when the benchmark ends. Safe for concurrent ranks.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// start opens a span and returns its id (ids start at 1).
func (r *recorder) start(parent int, op, layer, name string, rank int) int {
	return r.add(parent, op, layer, name, rank, r.now(), 0)
}

func (r *recorder) end(id int) {
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// add records a span whose interval is already known.
func (r *recorder) add(parent int, op, layer, name string, rank int, startNS, endNS int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Rank: rank, StartNS: startNS, EndNS: endNS})
	return id
}

func (r *recorder) startOf(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].StartNS
}

// selfByName sums, by span name, the self times in milliseconds of root and
// everything below it.
func (r *recorder) selfByName(root int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Children are recorded after their parents, so one forward scan from
	// the root collects its subtree.
	in := map[int]bool{root: true}
	sub := []span{r.spans[root-1]}
	for _, s := range r.spans[root:] {
		if in[s.Parent] {
			in[s.ID] = true
			sub = append(sub, s)
		}
	}
	sums := map[string]float64{}
	self := selfTimes(sub)
	for _, s := range sub {
		sums[s.Name] += float64(self[s.ID]) / 1e6
	}
	return sums
}

// obsNode is the JSON form of an internal/obs span tree, the only view of it
// a caller outside the package gets: a name, a real duration, attributes and
// children, but no start times.
type obsNode struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*obsNode     `json:"children"`
}

// decodeObs turns anything that marshals like an obs.Span into obsNodes.
func decodeObs(tree json.Marshaler) (*obsNode, error) {
	b, err := tree.MarshalJSON()
	if err != nil {
		return nil, err
	}
	var n obsNode
	if err := json.Unmarshal(b, &n); err != nil {
		return nil, err
	}
	return &n, nil
}

// importObs hangs an obs span tree under parent. Only the durations are real;
// start offsets are laid out from the parent's start, because the tree
// exports none: "rank" children run side by side, every other sibling group
// runs back to back (which is how the count schedule and the write path
// execute them). Virtual-time attributes are dropped.
func (r *recorder) importObs(parent int, op, layer string, n *obsNode, startNS int64, rank int) {
	if v, ok := n.Attrs["rank"].(float64); ok {
		rank = int(v)
	}
	dur := int64(n.DurationMS * 1e6)
	id := r.add(parent, op, layer, n.Name, rank, startNS, startNS+dur)
	at := startNS
	for _, c := range n.Children {
		if c.Name == "rank" {
			r.importObs(id, op, layer, c, startNS, rank)
			continue
		}
		r.importObs(id, op, layer, c, at, rank)
		at += int64(c.DurationMS * 1e6)
	}
}

// selfTimes maps every span id to its self time: its duration minus the part
// of its interval that its children cover (overlapping children are counted
// once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.StartNS
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
