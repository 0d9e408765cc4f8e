package main

import (
	"fmt"
	"runtime"
	"time"

	"tc2d"
)

// setupRuns is how often a run sets the system up; setup_s is their median
// and the last one serves the window.
const setupRuns = 5

// config is what the command line fixes for one run.
type config struct {
	seed    uint64
	seconds int
	out     string // directory for trace and detail files, "" for none
}

// outcome is one run's result: the metrics the contract line carries plus
// whatever else is worth printing beside them.
type outcome struct {
	metrics values
	extras  []string // human-readable lines: sample counts, tails, ratios
}

func (o *outcome) note(format string, args ...any) {
	o.extras = append(o.extras, fmt.Sprintf(format, args...))
}

// setupMedian brings the system up setupRuns times and keeps the last.
func (r *run) setupMedian(cfg config) (float64, error) {
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		sys, err := setup(r.w, cfg.seed, r.tmp)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		r.sys = sys
	}
	return median(secs), nil
}

// residentMB is HeapInuse once the garbage is gone. A sync.Pool keeps what it
// holds through one collection, and how much the system's pools hold at the
// end of a window is a matter of timing, so two collections run.
func residentMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// noteTail reports a latency tail at the percentile the sample supports.
func (o *outcome) noteTail(what string, ms []float64) {
	p := tailPercentile(len(ms))
	o.note("%s: n=%d p%g=%.3f ms max=%.3f ms", what, len(ms), p, percentile(ms, p), percentile(ms, 100))
}

// endToEnd is the untraced run: set-up, warm-up, one window of cfg.seconds
// with the workload's mix, a checked final count, and then whichever
// operation kind the window lacked, measured on its own.
func endToEnd(r *run, cfg config) (*outcome, error) {
	o := &outcome{metrics: values{}}
	setupS, err := r.setupMedian(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r.base = tc2d.CountSequential(r.sys.g)
	seqS := time.Since(t0).Seconds()

	r.warmup()
	win := r.pass(limit{deadline: time.Now().Add(time.Duration(cfg.seconds) * time.Second)}, false)
	r.quiesce()
	resident := residentMB()
	final := r.verifyFinal()

	reads, writes := win.readMS, win
	if !r.w.Reads {
		// A write-only window reads only at quiescent checkpoints; its
		// last, checked count is one more of those.
		reads = append(reads, final)
	}
	if !r.w.Writes {
		if writes, err = r.writeLane(); err != nil {
			return nil, err
		}
	}
	if len(reads) == 0 || len(writes.writeMS) == 0 || win.ops() == 0 {
		return o, fmt.Errorf("no operation completed: %s", r.first)
	}

	m := o.metrics
	m["setup_s"] = setupS
	m["read_p50_ms"] = median(reads)
	m["read_qps"] = float64(len(reads)) / (sum(reads) / 1000)
	m["write_p50_ms"] = median(writes.writeMS)
	m["updates_per_s"] = float64(writes.updates) / (sum(writes.writeMS) / 1000)
	m["alloc_bytes_per_op"] = float64(win.allocBytes) / float64(win.ops())
	m["resident_mb"] = resident

	o.note("graph: %s scale %d, n=%d m=%d, %d triangles; seqtc.Count %.3f s", r.w.Graph, r.w.Scale, r.sys.g.N, r.sys.g.NumEdges(), r.base, seqS)
	if r.w.Shape == shapeOneshot {
		o.note("oneshot_s=%.4f s (median of %d), %.2f× seqtc.Count on the same graph", median(reads)/1000, len(reads), median(reads)/1000/seqS)
	}
	o.noteTail("reads", reads)
	o.noteTail("writes", writes.writeMS)
	o.note("window: %d reads, %d write batches, %d effective of %d updates sent, %d rebuild batches, %d GC cycles",
		len(win.readMS), len(win.writeMS), win.updates, win.sent, len(win.rebuildMS), win.gcCycles)
	if len(win.visibleMS) > 0 {
		o.note("repl_visible_ms=%.3f (median of %d)", median(win.visibleMS), len(win.visibleMS))
	}
	return o, nil
}

// clusterRead counts on the cluster that takes the writes.
func (r *run) clusterRead() (int64, error) {
	res, err := r.sys.cl.Count(tc2d.QueryOptions{})
	if err != nil {
		return 0, err
	}
	return res.Triangles, nil
}
