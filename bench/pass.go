package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tc2d"
	"tc2d/internal/obs"
)

const (
	warmupOps = 3
	// checkEvery is how many batches a write-only window applies between
	// two quiescent, oracle-checked reads.
	checkEvery = 128
	// visibleEvery is how many acks the replica writer lets pass between
	// two waits for the follower to apply what the primary committed.
	visibleEvery = 8
	// laneBatches is the fixed length of the write pass that follows a
	// window without writes.
	laneBatches = 384
)

// tally counts operations attempted and operations that returned an error
// or a wrong answer. The reader and the writer share it.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     string // first failure, for the log
}

// ok counts one attempted operation and, when err is set, its failure.
func (t *tally) ok(err error, what string) bool {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	if err != nil {
		t.fail(fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// fail turns an operation already counted by ok into a failure.
func (t *tally) fail(msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.first == "" {
		t.first = msg
	}
}

// broken reports whether anything has failed; a pass stops early then, since
// the run is lost and a dead system would otherwise spin.
func (t *tally) broken() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed > 0
}

// run is one workload's benchmark process state.
type run struct {
	w    *workload
	seed uint64
	tmp  string // scratch directory of this run: PersistDirs, the walk's WAL
	sys  *system
	st   *stream // the update stream and its mirror; nil until the first write
	base int64   // oracle count of the graph as generated
	tally
	rec *recorder // non-nil only during the traced pass

	harnessAlloc uint64 // bytes the harness itself allocated inside a window (oracle runs)
}

// stream returns the update stream, mirroring the graph on first use (the
// mirror is harness memory, so read-only windows are measured without it).
func (r *run) stream() *stream {
	if r.st == nil {
		r.st = newStream(r.sys.g, r.seed, r.w.hot())
	}
	return r.st
}

// want is the count the system must report once every generated batch has
// been applied.
func (r *run) want() (int64, error) {
	if r.st == nil {
		return r.base, nil
	}
	return r.st.oracle()
}

// verify issues one read at a quiescent point and checks it against the
// oracle. It returns the read's latency in milliseconds.
func (r *run) verify(what string, read func() (int64, error)) float64 {
	t0 := time.Now()
	got, err := read()
	ms := msSince(t0)
	if !r.ok(err, what) {
		return ms
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	want, err := r.want()
	runtime.ReadMemStats(&after)
	r.harnessAlloc += after.TotalAlloc - before.TotalAlloc
	if err != nil {
		r.fail(fmt.Sprintf("%s: oracle: %v", what, err))
	} else if got != want {
		r.fail(wrongCount(what, got, want))
	}
	return ms
}

func wrongCount(what string, got, want int64) string {
	return fmt.Sprintf("%s: counted %d triangles, the sequential oracle says %d", what, got, want)
}

// check counts one attempted answer and fails it when it is not the
// oracle's.
func (t *tally) check(what string, got, want int64) {
	if t.ok(nil, what); got != want {
		t.fail(wrongCount(what, got, want))
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// limit ends a pass: at the deadline when one is set, else after the op
// counts. In a mixed pass the writer's limit ends the pass and the reader
// runs until the writer is done.
type limit struct {
	deadline      time.Time
	reads, writes int
}

func (l limit) more(done, n int) bool {
	if !l.deadline.IsZero() {
		return time.Now().Before(l.deadline)
	}
	return done < n
}

// samples is what one pass measured.
type samples struct {
	readMS, writeMS []float64
	rebuildMS       []float64 // latencies of the batches that carried a staleness rebuild
	visibleMS       []float64 // primary ack → applied on the follower
	updates, sent   int64     // effective updates, updates sent
	allocBytes      uint64    // TotalAlloc growth over the pass, harness oracle runs excluded
	gcCycles        uint32
	gcPauseMS       float64
}

func (s *samples) ops() int { return len(s.readMS) + len(s.writeMS) }

// pass runs the workload's operation mix once, closed loop: one reader
// and/or one writer, each issuing its next operation when the previous one
// returns. traced routes every operation through the traced entry points
// and records their span trees.
func (r *run) pass(lim limit, traced bool) *samples {
	s := &samples{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.harnessAlloc = 0
	switch {
	case r.w.Reads && r.w.Writes:
		writerDone := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
					r.readOp(s, traced)
				}
			}
		}()
		for lim.more(len(s.writeMS), lim.writes) && !r.broken() {
			r.writeOp(s, traced)
		}
		close(writerDone)
		wg.Wait()
	case r.w.Writes:
		for lim.more(len(s.writeMS), lim.writes) && !r.broken() {
			r.writeOp(s, traced)
			if len(s.writeMS)%checkEvery == 0 {
				s.readMS = append(s.readMS, r.verify("checkpoint read", r.sys.read))
			}
		}
	default:
		for lim.more(len(s.readMS), lim.reads) && !r.broken() {
			r.readOp(s, traced)
		}
	}
	runtime.ReadMemStats(&after)
	s.allocBytes = after.TotalAlloc - before.TotalAlloc - r.harnessAlloc
	s.gcCycles = after.NumGC - before.NumGC
	s.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return s
}

func (r *run) readOp(s *samples, traced bool) {
	t0 := time.Now()
	var err error
	if traced {
		start := r.rec.now()
		var tr *obs.Trace
		_, tr, err = r.sys.readTraced()
		r.importTrace("read", tr, start)
	} else {
		_, err = r.sys.read()
	}
	ms := msSince(t0)
	if r.ok(err, "read") {
		s.readMS = append(s.readMS, ms)
	}
}

func (r *run) writeOp(s *samples, traced bool) {
	batch := r.stream().next()
	t0 := time.Now()
	var res *tc2d.UpdateResult
	var err error
	if traced {
		start := r.rec.now()
		var tr *obs.Trace
		res, tr, err = r.sys.cl.ApplyUpdatesTraced(batch)
		r.importTrace("write", tr, start)
	} else {
		res, err = r.sys.cl.ApplyUpdates(batch)
	}
	ms := msSince(t0)
	s.sent += int64(len(batch))
	if !r.ok(err, "write") {
		return
	}
	s.writeMS = append(s.writeMS, ms)
	s.updates += int64(res.Inserted + res.Deleted)
	if res.Rebuilt {
		s.rebuildMS = append(s.rebuildMS, ms)
	}
	if r.sys.fol != nil && len(s.writeMS)%visibleEvery == 0 {
		seq := r.sys.cl.CommittedSeq()
		t1 := time.Now()
		if err := r.sys.waitApplied(seq); err != nil {
			r.fail(err.Error())
			return
		}
		s.visibleMS = append(s.visibleMS, msSince(t1))
	}
}

// importTrace records the span tree a traced entry point returned (nil from
// the one-shot API, which has none).
func (r *run) importTrace(op string, tr *obs.Trace, startNS int64) {
	if tr == nil {
		return
	}
	n, err := decodeObs(tr.Root)
	if err != nil {
		return // a trace that does not decode costs a span tree, not the run
	}
	r.rec.importObs(0, op, "tc2d", n, startNS, -1)
}

// warmup issues the untimed operations that precede a window.
func (r *run) warmup() {
	for i := 0; i < warmupOps; i++ {
		if r.w.Reads {
			_, err := r.sys.read()
			r.ok(err, "warm-up read")
		}
		if r.w.Writes {
			_, err := r.sys.cl.ApplyUpdates(r.stream().next())
			r.ok(err, "warm-up write")
		}
	}
}

// quiesce waits until the follower has everything the primary committed.
func (r *run) quiesce() {
	if r.sys.fol == nil {
		return
	}
	if err := r.sys.waitApplied(r.sys.cl.CommittedSeq()); err != nil {
		r.fail(err.Error())
	}
}

// verifyFinal checks a pass's last, quiescent count — on both clusters of a
// replica pair — and returns the latency of the read a user of the shape
// would have issued.
func (r *run) verifyFinal() float64 {
	r.quiesce()
	ms := r.verify("final read", r.sys.read)
	if r.sys.fol != nil {
		r.verify("final primary read", r.clusterRead)
	}
	return ms
}

// writeLane measures writes on a workload whose window has none: a fixed
// number of batches, quiescent, on the workload's own graph (shapeOneshot
// gets a resident cluster for it), and a checked count afterwards.
func (r *run) writeLane() (*samples, error) {
	if r.sys.cl == nil {
		cl, err := tc2d.NewCluster(r.sys.g, tc2d.Options{Ranks: ranks})
		if err != nil {
			return nil, err
		}
		r.sys.cl = cl
	}
	for i := 0; i < warmupOps; i++ {
		_, err := r.sys.cl.ApplyUpdates(r.stream().next())
		r.ok(err, "warm-up write")
	}
	s := &samples{}
	for len(s.writeMS) < laneBatches && !r.broken() {
		r.writeOp(s, false)
	}
	r.verify("read after write lane", r.clusterRead)
	return s, nil
}
