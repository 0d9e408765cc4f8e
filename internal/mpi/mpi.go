// Package mpi implements a small SPMD message-passing runtime in pure Go.
//
// It provides the subset of MPI that distributed graph algorithms need:
// ranks with private memory, tagged point-to-point messages, the classic
// collectives (barrier, broadcast, reduce, allreduce, gather, all-to-all),
// prefix scans, and a 2D Cartesian grid helper for Cannon-style shift
// patterns.
//
// Ranks are goroutines. Nothing is shared between ranks except the message
// transport; every Send copies its payload (or takes ownership with the
// *Own variants), so the programming model is identical to message passing
// between processes.
//
// # Epoch groups
//
// A World supports many Run epochs and schedules them like a
// reader/writer lock: Run epochs are exclusive (one at a time), while
// RunRead epochs — which must not mutate any state shared across epochs —
// may execute concurrently with each other. Every epoch gets a private
// communication namespace keyed by its epoch id (its own mailbox matrix
// and barrier), so messages from overlapping epochs can never cross, on
// either transport.
//
// # Virtual time
//
// Besides real wall-clock time, the runtime maintains a per-rank virtual
// clock driven by a LogGP-style cost model (see CostModel). Local work is
// the time between messages: a rank holds one compute slot from the moment
// its body starts, or a blocking primitive returns, until the next blocking
// primitive begins (SendOwn on a full mailbox or on a socket, Recv of a
// message not yet delivered, the shared-memory Barrier), and the wall time
// of each such stretch is charged to the rank's clock — the way the paper
// times the stretches between MPI calls. Rank bodies carry no annotation,
// and must never block on another rank outside this package: they would do
// so holding a slot. Communication charges latency+bandwidth terms and
// enforces causality at matching receives, making the runtime a
// conservative distributed simulation. The maximum virtual clock over all
// ranks at the end of a run is the modeled parallel runtime — the quantity
// a BSP/LogP analysis predicts — and is what the experiment harness reports
// when reproducing the paper's scaling tables on a host with fewer cores
// than ranks.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tc2d/internal/obs"
)

// ErrPeerLost is the typed failure for communication that can never
// complete because a peer process died. On process-spanning worlds every
// rank blocked in Recv (or failing a Send) during a lost-peer event
// unwinds with an error wrapping ErrPeerLost; callers detect it with
// errors.Is and treat the epoch's work as void.
var ErrPeerLost = errors.New("mpi: peer process lost")

// CostModel parameterizes the communication cost model. Sending b bytes makes
// the sender busy for Overhead + b/Beta seconds and the message arrives at the
// receiver Alpha + b/Beta seconds after the send started (plus the sender
// overhead). A barrier costs Alpha * ceil(log2 p) beyond the latest entrant.
type CostModel struct {
	Alpha    float64 // one-way message latency, seconds
	Beta     float64 // bandwidth, bytes per second
	Overhead float64 // per-message CPU overhead on sender and receiver, seconds
}

// DefaultCostModel returns InfiniBand-class parameters comparable to the
// cluster used in the paper (FDR-generation fabric): 2 microseconds latency,
// 6 GB/s bandwidth, 0.5 microsecond send/receive overhead.
func DefaultCostModel() CostModel {
	return CostModel{Alpha: 2e-6, Beta: 6e9, Overhead: 5e-7}
}

// Config configures a World.
type Config struct {
	// Model is the communication cost model. The zero value means
	// DefaultCostModel.
	Model CostModel
	// ComputeSlots bounds how many ranks run between messages; 1 (the
	// default) gives contention-free modeled times at the price of
	// serializing real execution. Set to runtime.NumCPU() for fast
	// functional runs where modeled time does not matter.
	ComputeSlots int
	// PairCap is the buffered capacity of each sender→receiver mailbox.
	// The default (16) comfortably covers the bounded skew of the
	// collectives and Cannon shift patterns used here.
	PairCap int
	// Metrics, when non-nil, receives per-epoch accounting: epoch counts
	// and wall durations by kind (read/write) and each rank's cumulative
	// real seconds blocked in communication and running between messages,
	// and bytes/messages sent.
	// Historically every epoch's per-rank Stats died with the epoch; the
	// registry is where they accumulate instead.
	Metrics *obs.Registry
}

type message struct {
	tag    int
	data   []byte
	depart float64 // virtual time at which the message is fully on the wire
}

// epochState is one epoch's private communication namespace: its own
// mailbox matrix and barrier, keyed by the epoch id. Concurrent read
// epochs each hold their own epochState, so a message sent in one epoch
// can never be received by another.
//
// The namespace also carries an abort channel. When a rank fails or the
// wire of a socket world does, messages its peers wait for will never
// arrive, so abort closes: ranks blocked in Recv, in SendOwn on a full
// mailbox or in the shared-memory Barrier unwind with the cause (ErrAborted
// or ErrPeerLost) as their error.
//
// A socket reader never blocks on a mailbox: the link it reads may carry
// the very frame — another rank's data, or an abort — that the mailbox's
// rank is waiting for. A frame for a full mailbox queues in the mailbox's
// overflow instead, which its receiver moves in, oldest first, as it takes
// messages out (see deliver and refill).
type epochState struct {
	id      int
	mail    [][]chan message // mail[dst][src]
	barrier barrierState
	abort   chan struct{}
	aborted bool  // guarded by World.epochMu
	cause   error // why abort closed; written before it closes

	overMu sync.Mutex
	over   map[[2]int][]message // frames behind full mailboxes, by (dst, src), in arrival order
	overN  atomic.Int64         // frames in over
}

// ErrAborted is the cause a rank unwinds with when another rank of its epoch
// failed first, in this process or another; runEpoch reports the failed
// rank's error instead when it ran here.
var ErrAborted = errors.New("mpi: epoch aborted by a failed rank")

// stop closes abort once, recording cause; the caller holds World.epochMu.
func (ep *epochState) stop(cause error) {
	if !ep.aborted {
		ep.aborted = true
		ep.cause = cause
		close(ep.abort)
	}
}

// unwind is the panic of a rank whose blocking primitive saw abort close; it
// first retakes the slot the primitive released, which job.run gives back.
func (c *Comm) unwind(what string) {
	c.acquire()
	panic(fmt.Errorf("mpi: rank %d %s aborted: %w", c.rank, what, c.ep.cause))
}

func newEpochState(p, pairCap int) *epochState {
	ep := &epochState{abort: make(chan struct{})}
	ep.mail = make([][]chan message, p)
	for d := range ep.mail {
		ep.mail[d] = make([]chan message, p)
		for s := range ep.mail[d] {
			ep.mail[d][s] = make(chan message, pairCap)
		}
	}
	ep.barrier.size = p
	return ep
}

// deliver puts a frame from the wire in mailbox mail[dst][src] without
// blocking: behind the mailbox's overflow when that holds frames, in the
// mailbox when it has room, else at the end of the overflow. A frame that
// would queue after the epoch aborted is dropped, as nobody will take it.
// It reports false, keeping nothing, when the overflow already holds limit
// frames: the receiver does not keep up with its sender.
//
// The receiver takes messages without overMu and refills only when it then
// sees overN set, so a take can fall between the failed send and the
// append. The refill after the append moves the frame into the room that
// take freed; a take after the append sees overN set and refills itself.
// Either way the mailbox is full whenever its overflow holds frames.
func (ep *epochState) deliver(dst, src int, m message, limit int) bool {
	ep.overMu.Lock()
	defer ep.overMu.Unlock()
	key := [2]int{dst, src}
	q := ep.over[key]
	if len(q) == 0 {
		select {
		case ep.mail[dst][src] <- m:
			return true
		default:
		}
	}
	select {
	case <-ep.abort:
		return true
	default:
	}
	if len(q) >= limit {
		return false
	}
	if ep.over == nil {
		ep.over = make(map[[2]int][]message)
	}
	ep.over[key] = append(q, m)
	ep.overN.Add(1)
	ep.refillLocked(key)
	return true
}

// refill moves the overflow of mailbox mail[dst][src] into it, oldest first,
// while it has room. The mailbox's receiver calls it after taking a message
// out while overN is set, and deliver after every append, so messages keep
// their order and none stays behind a mailbox with room.
func (ep *epochState) refill(dst, src int) {
	ep.overMu.Lock()
	defer ep.overMu.Unlock()
	ep.refillLocked([2]int{dst, src})
}

// refillLocked is refill for a caller that holds overMu.
func (ep *epochState) refillLocked(key [2]int) {
	q := ep.over[key]
	for ; len(q) > 0; q = q[1:] {
		select {
		case ep.mail[key[0]][key[1]] <- q[0]:
			q[0] = message{}
			ep.overN.Add(-1)
		default:
			ep.over[key] = q
			return
		}
	}
	delete(ep.over, key)
}

// drained reports whether every mailbox of the namespace is empty.
func (ep *epochState) drained() bool {
	if ep.overN.Load() != 0 {
		return false
	}
	for _, row := range ep.mail {
		for _, ch := range row {
			if len(ch) != 0 {
				return false
			}
		}
	}
	return true
}

// World owns the transport and synchronization state for an SPMD runtime.
// Messages travel over in-process channels, or over sockets (procWire) on
// a proc world or a loopback TCP world. A world is resident: it supports
// many Run epochs against the same transport (and the same sockets), so a
// distributed data structure built in one epoch can be queried by later
// epochs without re-paying any setup. Each epoch runs its rank bodies on
// worker goroutines spawned for that epoch.
//
// Epochs form two groups. Run epochs are exclusive: they never overlap
// with any other epoch. RunRead epochs may execute concurrently with each
// other (but never with a Run epoch) — the reader/writer discipline of an
// RWMutex. Each epoch gets fresh virtual clocks and stats and a private
// comm namespace (see epochState). Call Close to retire the world (and the
// sockets).
type World struct {
	size    int
	model   CostModel
	pairCap int
	slots   chan struct{}
	proc    *procWire // non-nil when messages travel over sockets
	local   []int     // global ranks hosted by this process; nil = all, the world spans no processes

	// gate is the epoch scheduler: RunRead epochs share it, Run epochs
	// and Close take it exclusively.
	gate sync.RWMutex

	lifeMu   sync.Mutex // guards the lifecycle state below
	closed   bool
	epochs   int
	closeErr error

	epochMu sync.RWMutex
	active  map[int]*epochState // in-flight epochs by id (socket routing)
	retired map[int]bool        // errored or aborted epochs' ids: readers drop their late frames
	free    []*epochState       // recycled namespaces of error-free epochs
	regCond *sync.Cond          // socket worlds: signals epoch registration (epochMu)
	regStop bool                // socket worlds: wire failed or world closing (epochMu)

	metrics *worldMetrics // nil when Config.Metrics was nil
}

// worldMetrics holds the pre-resolved metric handles an instrumented world
// publishes into. Handles are resolved once at NewWorld so the per-epoch
// cost is a handful of atomic adds, not registry lookups.
type worldMetrics struct {
	epochsRead   *obs.Counter
	epochsWrite  *obs.Counter
	secondsRead  *obs.Histogram
	secondsWrite *obs.Histogram

	// Per-rank cumulative accounting, indexed by rank.
	commSeconds []*obs.Counter // real seconds blocked in communication
	compSeconds []*obs.Counter // real seconds running between messages
	bytesSent   []*obs.Counter
	msgsSent    []*obs.Counter
}

func newWorldMetrics(reg *obs.Registry, p int) *worldMetrics {
	if reg == nil {
		return nil
	}
	m := &worldMetrics{
		epochsRead:   reg.Counter("tc_mpi_epochs_total", "SPMD epochs run, by kind.", obs.L("kind", "read")),
		epochsWrite:  reg.Counter("tc_mpi_epochs_total", "SPMD epochs run, by kind.", obs.L("kind", "write")),
		secondsRead:  reg.Histogram("tc_mpi_epoch_seconds", "Wall-clock epoch duration, by kind.", obs.DurationBuckets, obs.L("kind", "read")),
		secondsWrite: reg.Histogram("tc_mpi_epoch_seconds", "Wall-clock epoch duration, by kind.", obs.DurationBuckets, obs.L("kind", "write")),
	}
	for r := 0; r < p; r++ {
		rl := obs.L("rank", strconv.Itoa(r))
		m.commSeconds = append(m.commSeconds, reg.Counter("tc_mpi_rank_comm_seconds_total", "Cumulative real seconds blocked in communication per rank (waiting for a compute slot included).", rl))
		m.compSeconds = append(m.compSeconds, reg.Counter("tc_mpi_rank_comp_seconds_total", "Cumulative real seconds running between messages per rank.", rl))
		m.bytesSent = append(m.bytesSent, reg.Counter("tc_mpi_rank_bytes_sent_total", "Cumulative bytes sent per rank.", rl))
		m.msgsSent = append(m.msgsSent, reg.Counter("tc_mpi_rank_msgs_sent_total", "Cumulative messages sent per rank.", rl))
	}
	return m
}

// NewWorld creates a world with p ranks.
func NewWorld(p int, cfg Config) *World {
	if p <= 0 {
		panic(fmt.Sprintf("mpi: world size %d", p))
	}
	if cfg.Model == (CostModel{}) {
		cfg.Model = DefaultCostModel()
	}
	if cfg.ComputeSlots <= 0 {
		cfg.ComputeSlots = 1
	}
	if cfg.PairCap <= 0 {
		cfg.PairCap = 16
	}
	w := &World{size: p, model: cfg.Model, pairCap: cfg.PairCap}
	w.slots = make(chan struct{}, cfg.ComputeSlots)
	for i := 0; i < cfg.ComputeSlots; i++ {
		w.slots <- struct{}{}
	}
	w.active = make(map[int]*epochState)
	w.retired = make(map[int]bool)
	w.metrics = newWorldMetrics(cfg.Metrics, p)
	return w
}

// RankFunc is the body executed by every rank of an SPMD run.
type RankFunc func(c *Comm) (any, error)

// RankPanicError wraps a panic that escaped a rank function.
type RankPanicError struct {
	Rank  int
	Value any
	Stack string
}

func (e *RankPanicError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v\n%s", e.Rank, e.Value, e.Stack)
}

// job is one epoch's unit of work, shared by that epoch's rank workers.
type job struct {
	fn      RankFunc
	results []any
	errs    []error
	wg      *sync.WaitGroup
}

func (j job) run(c *Comm) {
	defer j.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			// An aborted epoch is an expected failure mode, not a bug in the
			// rank body: surface it as a plain typed error rather than a
			// panic wrapper so callers can errors.Is(err, ErrPeerLost).
			err, ok := v.(error)
			if !ok || !errors.Is(err, ErrPeerLost) && !errors.Is(err, ErrAborted) {
				buf := make([]byte, 16<<10)
				err = &RankPanicError{Rank: c.rank, Value: v, Stack: string(buf[:runtime.Stack(buf, false)])}
			}
			j.errs[c.rank] = err
		}
		// The first failure aborts the epoch, so peers blocked on this rank
		// unwind instead of waiting for messages it will never send — in
		// other processes too, which learn of it from an abort frame.
		if j.errs[c.rank] != nil {
			c.world.epochMu.Lock()
			first := !c.ep.aborted
			c.ep.stop(ErrAborted)
			c.world.epochMu.Unlock()
			if first && c.world.local != nil {
				c.world.proc.abort(c.rank, c.ep.id)
			}
		}
	}()
	c.acquire()
	defer c.release() // deferred: a panicking rank must not leak its slot
	res, err := j.fn(c)
	j.results[c.rank] = res
	j.errs[c.rank] = err
}

// Run executes fn on every rank concurrently — one exclusive SPMD epoch —
// and returns the per-rank results once all ranks finish. If any rank
// returns an error or panics, the epoch aborts: ranks blocked on a message,
// a full mailbox or a barrier unwind. Run then returns the first error (by
// rank order) that is not such an unwinding, alongside the partial results.
//
// Run may be called repeatedly on the same world: the world (transport,
// sockets, cost model) stays resident between epochs, and every epoch
// starts with fresh virtual clocks and stats. A Run epoch never
// overlaps any other epoch: concurrent Run calls queue, and a Run epoch
// waits out all in-flight RunRead epochs (use RunRead for epochs that can
// share the world). Each epoch's messages live in a namespace keyed by its
// epoch id, so an errored epoch's undelivered messages die with it and
// cannot poison later epochs — though an errored rank function usually
// means the SPMD program itself lost synchronization, so treat errors as
// fatal to the computation they belong to.
func (w *World) Run(fn RankFunc) ([]any, error) {
	if w.local != nil {
		return nil, fmt.Errorf("mpi: Run on a process-spanning world; epoch ids must be coordinated — use RunEpochAt")
	}
	w.gate.Lock()
	defer w.gate.Unlock()
	return w.runEpoch(autoEpochID, fn, epochWrite)
}

// RunRead executes fn on every rank concurrently as a read-only epoch:
// multiple RunRead epochs may execute at the same time, each with its own
// comm namespace, virtual clocks and stats. fn must not mutate state
// shared across epochs (resident data structures built by earlier Run
// epochs may be read freely). A Run epoch excludes all RunRead epochs and
// vice versa, with the acquisition fairness of sync.RWMutex.
//
// Concurrent read epochs share the world's compute slots: with
// ComputeSlots of 1 the modeled times stay contention-free but the ranks of
// overlapping epochs run one at a time; raise ComputeSlots for wall-clock
// throughput.
func (w *World) RunRead(fn RankFunc) ([]any, error) {
	if w.local != nil {
		return nil, fmt.Errorf("mpi: RunRead on a process-spanning world; epoch ids must be coordinated — use RunEpochAt")
	}
	w.gate.RLock()
	defer w.gate.RUnlock()
	return w.runEpoch(autoEpochID, fn, epochRead)
}

// RunEpochAt executes one epoch under an externally assigned epoch id.
// It exists for process-spanning worlds, where every participating process
// must run the same epoch under the same id so frames route to the right
// namespace: a coordinator allocates ids and each process calls RunEpochAt
// with that id. read selects the concurrent (RunRead) or exclusive (Run)
// scheduling group. On single-process worlds it behaves like Run/RunRead
// with a caller-chosen id; ids must never repeat while an epoch is live,
// and on a socket world an id whose epoch failed or aborted is retired for
// good: an epoch that reuses it is aborted at birth.
//
// Only the ranks local to this process execute; results and errors for
// remote ranks are nil in the returned slice.
func (w *World) RunEpochAt(id int, read bool, fn RankFunc) ([]any, error) {
	if id < 0 {
		return nil, fmt.Errorf("mpi: RunEpochAt with negative epoch id %d", id)
	}
	if read {
		w.gate.RLock()
		defer w.gate.RUnlock()
		return w.runEpoch(id, fn, epochRead)
	}
	w.gate.Lock()
	defer w.gate.Unlock()
	return w.runEpoch(id, fn, epochWrite)
}

// epochKind distinguishes exclusive (write) epochs from concurrent read
// epochs in the published metrics.
type epochKind int

const (
	epochWrite epochKind = iota
	epochRead
)

// autoEpochID asks runEpoch to allocate the next sequential epoch id —
// the only mode single-process worlds use. Process-spanning worlds pass a
// coordinator-assigned id through RunEpochAt instead.
const autoEpochID = -1

// runEpoch spawns one epoch's rank workers — each with a fresh Comm
// (virtual clock and stats reset) bound to the epoch's comm namespace —
// and collects their results. Workers survive panics, so the world stays
// usable for further epochs. The caller holds the gate (shared or
// exclusive). When the world carries a registry, the epoch retains its
// per-rank Comms and publishes their Stats before returning, instead of
// dropping them with the epoch.
//
// On process-spanning worlds only the local ranks run; remote ranks'
// result/error slots stay nil.
func (w *World) runEpoch(id int, fn RankFunc, kind epochKind) ([]any, error) {
	w.lifeMu.Lock()
	if w.closed {
		w.lifeMu.Unlock()
		return nil, fmt.Errorf("mpi: Run on closed world")
	}
	w.epochs++
	if id == autoEpochID {
		id = w.epochs
	}
	w.lifeMu.Unlock()

	if pw := w.proc; pw != nil {
		if err := pw.downErr(); err != nil {
			return nil, err
		}
	}

	w.epochMu.Lock()
	if w.active[id] != nil {
		w.epochMu.Unlock()
		return nil, fmt.Errorf("mpi: epoch id %d already in flight", id)
	}
	// Recycle a namespace (the p×p channel matrix is the read hot path's
	// only per-epoch allocation) or build a fresh one.
	var ep *epochState
	if n := len(w.free); n > 0 {
		ep, w.free = w.free[n-1], w.free[:n-1]
	} else {
		ep = newEpochState(w.size, w.pairCap)
	}
	ep.id = id
	w.active[id] = ep
	if w.retired[id] {
		// Another process's rank failed in this epoch before it started here.
		ep.stop(ErrAborted)
	}
	if w.regCond != nil {
		// Wire failure between the downErr check above and this
		// registration would miss this epoch: abort it at birth so its
		// receives unwind instead of waiting for frames that never come.
		if w.regStop {
			ep.stop(ErrPeerLost)
		}
		w.regCond.Broadcast()
	}
	w.epochMu.Unlock()

	start := time.Now()
	results := make([]any, w.size)
	errs := make([]error, w.size)
	comms := make([]*Comm, w.size)
	j := job{fn: fn, results: results, errs: errs, wg: &sync.WaitGroup{}}
	spawn := func(r int) {
		comms[r] = &Comm{world: w, rank: r, ep: ep, mark: start}
		go j.run(comms[r])
	}
	if w.local == nil {
		j.wg.Add(w.size)
		for r := 0; r < w.size; r++ {
			spawn(r)
		}
	} else {
		j.wg.Add(len(w.local))
		for _, r := range w.local {
			spawn(r)
		}
	}
	j.wg.Wait()

	if m := w.metrics; m != nil {
		epochs, seconds := m.epochsWrite, m.secondsWrite
		if kind == epochRead {
			epochs, seconds = m.epochsRead, m.secondsRead
		}
		end := time.Now()
		epochs.Inc()
		seconds.Observe(end.Sub(start).Seconds())
		for r, c := range comms {
			if c == nil {
				continue // remote rank
			}
			s := c.stats
			// A rank that finished early waited for its peers until the
			// epoch ended: blocked plus running is the whole epoch.
			m.commSeconds[r].Add(s.WallComm + end.Sub(c.mark).Seconds())
			m.compSeconds[r].Add(s.CompTime)
			m.bytesSent[r].Add(float64(s.BytesSent))
			m.msgsSent[r].Add(float64(s.MsgsSent))
		}
	}

	// The root cause: the first error by rank order, unless it is a rank
	// unwound by another's failure.
	var err error
	for _, e := range errs {
		if e != nil && (err == nil || errors.Is(err, ErrAborted) && !errors.Is(e, ErrAborted)) {
			err = e
		}
	}
	// Deregister, and recycle the namespace only after an error-free epoch
	// that never aborted: a correct SPMD epoch consumes every message it
	// sends (so the mailboxes are empty and no transport goroutine still
	// holds a reference) and leaves abort open. An errored one may still
	// have frames on the wire, so its id is retired — socket readers drop
	// its late frames instead of parking for a registration that never
	// comes — and its namespace is left to the GC. The emptiness scan is a
	// cheap belt-and-suspenders check on top of that contract.
	w.epochMu.Lock()
	delete(w.active, id)
	if (err != nil || ep.aborted) && w.proc != nil {
		w.retired[id] = true
	}
	if err == nil && !ep.aborted && ep.drained() {
		w.free = append(w.free, ep)
	}
	w.epochMu.Unlock()
	return results, err
}

// Close retires the world: it waits out every in-flight epoch (whose rank
// workers have then all exited) and, for socket worlds, shuts the transport
// down and releases the sockets. Close is idempotent and returns the
// transport error, if any. A closed world cannot be reused.
func (w *World) Close() error {
	w.gate.Lock()
	defer w.gate.Unlock()
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	if !w.closed {
		w.closed = true
		if w.proc != nil {
			w.closeErr = w.proc.shutdown()
		}
	}
	return w.closeErr
}

// Abort declares a socket world down without waiting for a socket error:
// every in-flight epoch unwinds with ErrPeerLost and later epochs fail
// fast. A coordinator uses this to kill surviving workers' worlds when a
// peer was evicted by heartbeat timeout — its connections may still look
// healthy while the process behind them is gone. No-op on channel worlds
// and after a previous failure.
func (w *World) Abort(reason string) {
	if w.proc != nil {
		w.proc.fail(fmt.Errorf("mpi: world aborted: %s", reason))
	}
}

// Run is a convenience that creates a world, runs fn on p ranks for a single
// epoch, and closes the world.
func Run(p int, cfg Config, fn RankFunc) ([]any, error) {
	w := NewWorld(p, cfg)
	defer w.Close()
	return w.Run(fn)
}

// Stats aggregates per-rank accounting. CommTime is modeled (the LogGP
// terms the paper tables report); CompTime and WallComm are real seconds.
type Stats struct {
	BytesSent int64
	MsgsSent  int64
	CommTime  float64 // modeled seconds attributed to communication and waiting
	CompTime  float64 // real seconds running between messages (plus any Elapse)
	WallComm  float64 // real seconds blocked in a primitive or waiting for a slot
}

// Comm is one rank's endpoint into a World, bound to one epoch's comm
// namespace.
type Comm struct {
	world *World
	rank  int
	ep    *epochState

	vt    float64 // virtual clock, seconds
	stats Stats
	// mark is where the current stretch began: the last charge while the
	// rank runs, the last release while it is blocked (the epoch start
	// before its body runs).
	mark time.Time
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Time returns this rank's current virtual clock in seconds, the running
// stretch included.
func (c *Comm) Time() float64 {
	c.charge()
	return c.vt
}

// Stats returns a snapshot of this rank's accounting counters, the running
// stretch included.
func (c *Comm) Stats() Stats {
	c.charge()
	return c.stats
}

// charge books the wall time since mark — the running stretch so far — as
// local work on the virtual clock.
func (c *Comm) charge() {
	now := time.Now()
	d := now.Sub(c.mark).Seconds()
	c.mark = now
	c.vt += d
	c.stats.CompTime += d
}

// release ends the running stretch before the rank blocks: the stretch is
// charged and the compute slot goes back to the world.
func (c *Comm) release() {
	c.charge()
	c.world.slots <- struct{}{}
}

// acquire takes a compute slot and starts a running stretch; everything
// since release — blocked in the primitive, then waiting for the slot — was
// communication in real seconds.
func (c *Comm) acquire() {
	<-c.world.slots
	now := time.Now()
	c.stats.WallComm += now.Sub(c.mark).Seconds()
	c.mark = now
}

// advanceComm moves the virtual clock to at least t and books the advance as
// communication time.
func (c *Comm) advanceComm(t float64) {
	if t > c.vt {
		c.stats.CommTime += t - c.vt
		c.vt = t
	}
}

// chargeComm adds d seconds of communication work to the clock.
func (c *Comm) chargeComm(d float64) {
	c.vt += d
	c.stats.CommTime += d
}

// Send sends a tagged message to dst. The payload is copied, so the caller
// may reuse data immediately.
func (c *Comm) Send(dst, tag int, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	c.SendOwn(dst, tag, buf)
}

// SendOwn sends data without copying: the receiver gets the caller's slice,
// so the caller must not write to it afterwards. The grid movers send one
// read-only payload to several receivers this way.
func (c *Comm) SendOwn(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d send to invalid rank %d", c.rank, dst))
	}
	c.charge()
	m := c.world.model
	start := c.vt
	c.chargeComm(m.Overhead + float64(len(data))/m.Beta)
	c.stats.BytesSent += int64(len(data))
	c.stats.MsgsSent++
	depart := start + m.Overhead + m.Alpha + float64(len(data))/m.Beta
	msg := message{tag: tag, data: data, depart: depart}
	if pw := c.world.proc; pw != nil && pw.route[c.rank][dst] != nil {
		c.release()
		err := pw.send(c.rank, dst, c.ep.id, msg)
		c.acquire()
		if err != nil {
			panic(err)
		}
		return
	}
	select {
	case c.ep.mail[dst][c.rank] <- msg:
	default: // mailbox full
		c.release()
		select {
		case c.ep.mail[dst][c.rank] <- msg:
		case <-c.ep.abort:
			c.unwind(fmt.Sprintf("send to %d", dst))
		}
		c.acquire()
	}
}

// Recv receives the next message from src, which must carry the given tag.
// Messages between a pair of ranks are delivered in send order; a tag
// mismatch means the SPMD program lost synchronization and panics.
func (c *Comm) Recv(src, tag int) []byte {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d recv from invalid rank %d", c.rank, src))
	}
	c.charge()
	var msg message
	select {
	case msg = <-c.ep.mail[c.rank][src]:
	default:
		// Not delivered yet: block without the slot. A message already in
		// the mailbox was taken above, so a racing abort can never discard
		// data the peer managed to send.
		c.release()
		select {
		case msg = <-c.ep.mail[c.rank][src]:
		case <-c.ep.abort:
			c.unwind(fmt.Sprintf("recv from %d", src))
		}
		c.acquire()
	}
	if c.ep.overN.Load() != 0 {
		c.ep.refill(c.rank, src)
	}
	if msg.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from rank %d, got %d", c.rank, tag, src, msg.tag))
	}
	c.advanceComm(msg.depart)
	c.chargeComm(c.world.model.Overhead)
	return msg.data
}

// SendRecv sends to dst and receives from src concurrently (both with the
// same tag), as in MPI_Sendrecv. Needed whenever a cycle of ranks exchanges
// data and the per-pair mailbox could otherwise fill.
func (c *Comm) SendRecv(dst, tag int, data []byte, src int) []byte {
	c.Send(dst, tag, data)
	return c.Recv(src, tag)
}

// Barrier blocks until every rank has entered it. All virtual clocks advance
// to the maximum entrant clock plus a log-depth latency term.
//
// On single-process worlds the barrier is a shared-memory rendezvous. On
// process-spanning worlds no memory is shared between ranks, so the barrier
// runs as a dissemination exchange over the message transport instead: in
// round k each rank sends its clock to (rank+2^k) mod p and receives from
// (rank-2^k) mod p, folding in the max; after ceil(log2 p) rounds every
// rank holds the global maximum and every rank is known to have entered.
func (c *Comm) Barrier() {
	p := c.world.size
	depth := 0
	if p > 1 {
		depth = bits.Len(uint(p - 1))
	}
	if c.world.local != nil {
		c.disseminationBarrier(p)
		return
	}
	c.release()
	t, ok := c.ep.barrier.wait(c.vt, c.ep.abort)
	if !ok {
		c.unwind("barrier")
	}
	c.acquire()
	c.advanceComm(t + float64(depth)*c.world.model.Alpha)
}

// disseminationBarrier synchronizes the ranks of a process-spanning world
// with pure message passing on a reserved tag. Per-pair FIFO delivery makes
// one tag safe across consecutive barriers: a rank cannot enter barrier n+1
// before finishing barrier n, and its round-k partner in barrier n+1 only
// consumes frames it explicitly receives from that pair, in send order.
func (c *Comm) disseminationBarrier(p int) {
	var buf [8]byte
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Time()))
		got := c.SendRecv(dst, tagBarrier, buf[:], src)
		t := math.Float64frombits(binary.LittleEndian.Uint64(got))
		c.advanceComm(t)
	}
}

// barrierState is a reusable counting barrier that also computes the maximum
// virtual time across entrants. Each generation's waiters block on its own
// channel, which the last entrant closes, so they can select on abort too.
type barrierState struct {
	mu           sync.Mutex
	size, count  int
	maxVT, outVT float64
	done         chan struct{} // the current generation's; nil until its first entrant
}

// wait blocks until all ranks arrive and returns the maximum entrant vt, or
// reports false once abort closes first. outVT is stable until this rank
// enters the next generation, which cannot complete without it.
func (b *barrierState) wait(vt float64, abort <-chan struct{}) (float64, bool) {
	b.mu.Lock()
	if b.done == nil {
		b.done = make(chan struct{})
	}
	done := b.done
	b.maxVT = max(b.maxVT, vt)
	if b.count++; b.count == b.size {
		b.outVT, b.maxVT, b.count, b.done = b.maxVT, 0, 0, nil
		close(done)
	}
	b.mu.Unlock()
	select {
	case <-done:
		return b.outVT, true
	case <-abort:
		return 0, false
	}
}
