// Package pworld turns a set of worker processes into one SPMD world.
//
// A Coordinator owns the world's shape — p global ranks and a wire-format
// version — and listens for workers. Each worker process dials in, asks to
// host a number of ranks, and passes a format-version check; once every
// rank in [0, p) is claimed the coordinator directs the workers to build a
// full mesh of rank-traffic connections among themselves (the coordinator
// itself hosts no ranks and carries no rank traffic), after which the world
// is Ready and the coordinator can dispatch epochs.
//
// Epochs are the unit of work: Coordinator.Run sends an (id, op, payload)
// triple to every worker, each worker executes the op on its local ranks
// inside mpi.RunEpochAt under the same id, and the per-rank result payloads
// flow back. Epoch starts are sequenced through a single dispatch lock and
// each worker admits them into its local reader/writer gate in arrival
// order, so every process interleaves exclusive and concurrent epochs
// identically — the property that makes the distributed gate deadlock-free.
//
// Failure handling is wholesale: when any worker dies (connection error,
// heartbeat timeout, or graceful leave) the coordinator fails every
// in-flight call with ErrWorkerLost, tells the survivors to abort their
// worlds, and drops to not-Ready. Membership completing again (a
// replacement worker joining) rebuilds the mesh from scratch under a new
// generation number — worlds are replaced, never repaired. The OnEvent
// callback reports Joined/Ready/Lost transitions so the embedding layer can
// run state recovery before using the new world.
package pworld

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrWorkerLost is returned by Coordinator.Run when a worker process was
// lost while the call was in flight. The epoch's work is void: no state it
// mutated on any worker survives (recovery rebuilds workers from the last
// durable state).
var ErrWorkerLost = errors.New("pworld: worker lost")

// ErrNotReady is returned by Coordinator.Run while the world is missing
// workers (before first assembly, or after a loss until a replacement
// joins and the mesh rebuilds).
var ErrNotReady = errors.New("pworld: world not ready")

// EventKind enumerates membership transitions reported through OnEvent.
type EventKind int

const (
	// EventJoined: a worker connected and was assigned ranks.
	EventJoined EventKind = iota
	// EventReady: all ranks are claimed and the mesh is built; Run works.
	EventReady
	// EventLost: a worker died or left; the world dropped to not-Ready.
	EventLost
)

func (k EventKind) String() string {
	switch k {
	case EventJoined:
		return "joined"
	case EventReady:
		return "ready"
	case EventLost:
		return "lost"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one membership transition.
type Event struct {
	Kind     EventKind
	WorkerID int    // worker involved (0 for Ready)
	Ranks    []int  // ranks assigned/freed (nil for Ready)
	Reason   string // human-readable detail (Lost only)
}

// Config parameterizes a Coordinator.
type Config struct {
	// World is the total number of ranks p. Required.
	World int
	// Format is the wire/snapshot format version workers must match.
	Format int
	// HeartbeatInterval is how often the coordinator pings workers.
	// Default 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout evicts a worker whose last pong is older than this.
	// Default 5s. Must comfortably exceed the longest exclusive epoch a
	// worker can be busy with — the worker answers pings from its control
	// loop, which an in-flight mesh build may briefly block.
	HeartbeatTimeout time.Duration
	// OnEvent, when non-nil, receives membership transitions, one at a time
	// and in the order the coordinator's state changed. Called from
	// coordinator goroutines without internal locks held; it may call back
	// into the Coordinator but must not block for long.
	OnEvent func(Event)
	// Logf, when non-nil, receives protocol-level log lines.
	Logf func(format string, args ...any)
}

// wireMsg is the single control-channel message type, used in both
// directions; Kind selects which fields are meaningful.
type wireMsg struct {
	Kind string // join welcome start started epoch epochDone ping pong leave down shutdown

	// join (worker→coord)
	WantRanks int
	Format    int
	MeshAddr  string

	// welcome (coord→worker)
	WorkerID int
	World    int
	Reject   string

	// start (coord→worker): build the mesh for generation Gen; started
	// (worker→coord): generation Gen is built; down (coord→worker): the
	// world of generation Gen is dead
	Gen   int
	Peers []PeerInfo

	// epoch (coord→worker) / epochDone (worker→coord). PerRank carries
	// rank-addressed inputs outbound and per-rank results inbound.
	Epoch    int
	Read     bool
	Op       string
	Common   []byte
	PerRank  map[int][]byte
	Err      string
	PeerLost bool
	Aborted  bool // the worker's ranks unwound because another worker's rank failed

	// down / leave / evict
	Reason string
}

// PeerInfo describes one member of the world to the workers building the
// mesh: its coordinator-assigned id, mesh listen address, and global ranks.
type PeerInfo struct {
	ID    int
	Addr  string
	Ranks []int
}

// span is a contiguous range of free ranks [Start, Start+N).
type span struct{ start, n int }

// member is the coordinator's view of one connected worker.
type member struct {
	id    int
	conn  net.Conn
	enc   *gob.Encoder
	encMu sync.Mutex
	addr  string
	ranks []int
	gen   int // highest generation this member acked with "started"

	pongMu   sync.Mutex
	lastPong time.Time
}

func (m *member) send(msg *wireMsg) error {
	m.encMu.Lock()
	defer m.encMu.Unlock()
	return m.enc.Encode(msg)
}

func (m *member) pong() {
	m.pongMu.Lock()
	m.lastPong = time.Now()
	m.pongMu.Unlock()
}

func (m *member) sincePong() time.Duration {
	m.pongMu.Lock()
	defer m.pongMu.Unlock()
	return time.Since(m.lastPong)
}

// call is one in-flight Coordinator.Run: the members still owing an
// epochDone and the per-rank payloads collected so far.
type call struct {
	need     map[int]bool
	payloads map[int][]byte
	err      error
	aborted  bool // err is a worker's unwinding, not the failure that caused it
	done     chan struct{}
}

// Coordinator accepts workers, assembles them into a world, and dispatches
// epochs. Create with NewCoordinator; it serves until Close.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	dispatchMu sync.Mutex // total-orders epoch starts across workers

	mu      sync.Mutex
	members map[int]*member
	free    []span
	nextID  int
	gen     int
	// unbuilt is set by every membership change (join, loss) and cleared by
	// the mesh start that covers it, so one assembly starts one build no
	// matter how many joins complete it at once.
	unbuilt bool
	ready   bool
	epoch   int
	calls   map[int]*call
	closed  bool

	// lifetime counters, served under mu
	joins, losses, timeouts int

	// events are the membership transitions not yet handed to OnEvent,
	// queued under mu in the order the state changes were made; emitting is
	// set while a goroutine delivers them (see flushEvents).
	events   []Event
	emitting bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator starts a coordinator serving worker joins on ln.
func NewCoordinator(ln net.Listener, cfg Config) (*Coordinator, error) {
	if cfg.World <= 0 {
		return nil, fmt.Errorf("pworld: world size %d", cfg.World)
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		members: make(map[int]*member),
		free:    []span{{0, cfg.World}},
		nextID:  1,
		calls:   make(map[int]*call),
		stop:    make(chan struct{}),
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.heartbeatLoop()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// queueLocked records a membership transition for OnEvent. Caller holds c.mu
// and has just made the state change ev reports.
func (c *Coordinator) queueLocked(ev Event) {
	if c.cfg.OnEvent != nil {
		c.events = append(c.events, ev)
	}
}

// flushEvents hands the queued transitions to OnEvent in queue order. One
// goroutine delivers at a time; one that finds delivery in progress leaves
// its events to it, so an OnEvent that calls back into the Coordinator cannot
// deadlock, and two goroutines racing past c.mu cannot swap the order.
func (c *Coordinator) flushEvents() {
	c.mu.Lock()
	if c.emitting {
		c.mu.Unlock()
		return
	}
	c.emitting = true
	for len(c.events) > 0 {
		ev := c.events[0]
		c.events = c.events[1:]
		c.mu.Unlock()
		c.cfg.OnEvent(ev)
		c.mu.Lock()
	}
	c.emitting = false
	c.mu.Unlock()
}

// Ready reports whether every rank is claimed and the mesh is built.
func (c *Coordinator) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready
}

// Workers returns the number of connected worker processes.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.members)
}

// Stats returns lifetime membership counters: workers joined, lost, and
// lost specifically to heartbeat timeout.
func (c *Coordinator) Stats() (joins, losses, timeouts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joins, c.losses, c.timeouts
}

// Close shuts the coordinator down: workers receive a shutdown message,
// all connections close, and in-flight calls fail.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.ready = false
	members := snapshotMembers(c.members)
	c.failCallsLocked(fmt.Errorf("pworld: coordinator closed"))
	c.mu.Unlock()

	close(c.stop)
	for _, m := range members {
		m.send(&wireMsg{Kind: "shutdown"})
		m.conn.Close()
	}
	c.ln.Close()
	c.wg.Wait()
	return nil
}

func snapshotMembers(ms map[int]*member) []*member {
	out := make([]*member, 0, len(ms))
	for _, m := range ms {
		out = append(out, m)
	}
	return out
}

// allocRanks takes k ranks from the first free span with room (first-fit).
func (c *Coordinator) allocRanks(k int) ([]int, bool) {
	for i, s := range c.free {
		if s.n >= k {
			ranks := make([]int, k)
			for j := 0; j < k; j++ {
				ranks[j] = s.start + j
			}
			if s.n == k {
				c.free = append(c.free[:i], c.free[i+1:]...)
			} else {
				c.free[i] = span{s.start + k, s.n - k}
			}
			return ranks, true
		}
	}
	return nil, false
}

// freeRanks returns a contiguous rank range to the free list, merging
// adjacent spans so a same-sized replacement reclaims it whole.
func (c *Coordinator) freeRanks(ranks []int) {
	if len(ranks) == 0 {
		return
	}
	s := span{ranks[0], len(ranks)}
	out := c.free[:0]
	inserted := false
	for _, f := range c.free {
		if !inserted && s.start < f.start {
			out = append(out, s)
			inserted = true
		}
		out = append(out, f)
	}
	if !inserted {
		out = append(out, s)
	}
	merged := out[:1]
	for _, f := range out[1:] {
		last := &merged[len(merged)-1]
		if last.start+last.n == f.start {
			last.n += f.n
		} else {
			merged = append(merged, f)
		}
	}
	c.free = merged
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.handleWorker(conn)
	}
}

// handleWorker runs one worker's control connection: join handshake, then
// the inbound message loop until the connection dies.
func (c *Coordinator) handleWorker(conn net.Conn) {
	defer c.wg.Done()
	dec := gob.NewDecoder(conn)
	var join wireMsg
	if err := dec.Decode(&join); err != nil || join.Kind != "join" {
		conn.Close()
		return
	}
	m := &member{conn: conn, enc: gob.NewEncoder(conn), addr: join.MeshAddr}
	// The welcome must be the first message the worker reads, yet from the
	// moment the member is published a concurrent joiner that completes the
	// world may send it a mesh start: hold the member's send lock from before
	// publication until the welcome is written.
	m.encMu.Lock()
	reject := ""
	c.mu.Lock()
	switch {
	case c.closed:
		reject = "coordinator closed"
	case join.Format != c.cfg.Format:
		reject = fmt.Sprintf("format version %d, coordinator wants %d", join.Format, c.cfg.Format)
	case join.WantRanks <= 0 || join.WantRanks > c.cfg.World:
		reject = fmt.Sprintf("cannot host %d of %d ranks", join.WantRanks, c.cfg.World)
	default:
		ranks, ok := c.allocRanks(join.WantRanks)
		if !ok {
			reject = fmt.Sprintf("no %d contiguous free ranks", join.WantRanks)
		} else {
			m.id = c.nextID
			c.nextID++
			m.ranks = ranks
			m.pong()
			c.members[m.id] = m
			c.unbuilt = true
			c.joins++
			c.queueLocked(Event{Kind: EventJoined, WorkerID: m.id, Ranks: m.ranks})
		}
	}
	c.mu.Unlock()
	err := m.enc.Encode(&wireMsg{Kind: "welcome", WorkerID: m.id, World: c.cfg.World, Reject: reject})
	m.encMu.Unlock()
	if reject != "" {
		conn.Close()
		return
	}
	if err != nil {
		c.markLost(m, "welcome write: "+err.Error(), false)
		return
	}
	c.logf("pworld: worker %d joined from %s, ranks %v", m.id, conn.RemoteAddr(), m.ranks)
	c.flushEvents()
	c.maybeStartMesh()

	for {
		var msg wireMsg
		if err := dec.Decode(&msg); err != nil {
			c.markLost(m, "connection: "+err.Error(), false)
			return
		}
		switch msg.Kind {
		case "pong":
			m.pong()
		case "started":
			c.noteStarted(m, msg.Gen)
		case "epochDone":
			c.noteEpochDone(m, &msg)
		case "leave":
			c.markLost(m, "graceful leave", false)
			return
		}
	}
}

// maybeStartMesh kicks off a mesh build when every rank is claimed and the
// membership changed since the last build was started. Every joining
// worker's goroutine calls it; the decision is taken under c.mu, so exactly
// one of several concurrent last joiners starts the generation.
func (c *Coordinator) maybeStartMesh() {
	c.mu.Lock()
	if c.closed || len(c.free) != 0 || !c.unbuilt {
		c.mu.Unlock()
		return
	}
	c.unbuilt = false
	c.gen++
	gen := c.gen
	peers := make([]PeerInfo, 0, len(c.members))
	for _, m := range c.members {
		peers = append(peers, PeerInfo{ID: m.id, Addr: m.addr, Ranks: m.ranks})
	}
	members := snapshotMembers(c.members)
	c.mu.Unlock()

	c.logf("pworld: all %d ranks claimed, building mesh generation %d across %d workers", c.cfg.World, gen, len(members))
	for _, m := range members {
		if err := m.send(&wireMsg{Kind: "start", Gen: gen, Peers: peers}); err != nil {
			c.markLost(m, "start write: "+err.Error(), false)
			return
		}
	}
}

// noteStarted records a worker's mesh-build ack and flips the world to
// Ready when the current generation is fully acked.
func (c *Coordinator) noteStarted(m *member, gen int) {
	c.mu.Lock()
	m.gen = gen
	if c.closed || c.ready || gen != c.gen || len(c.free) != 0 {
		c.mu.Unlock()
		return
	}
	for _, mm := range c.members {
		if mm.gen != c.gen {
			c.mu.Unlock()
			return
		}
	}
	c.ready = true
	c.queueLocked(Event{Kind: EventReady})
	c.mu.Unlock()
	c.logf("pworld: mesh generation %d ready", gen)
	c.flushEvents()
}

// markLost handles a worker's death from any cause exactly once per member:
// frees its ranks, fails in-flight calls, aborts the survivors' worlds, and
// reports the loss. The abort names the generation that died: by the time it
// reaches a survivor, a replacement may have completed the world and the
// survivor may be running the next generation, which the abort must spare.
func (c *Coordinator) markLost(m *member, reason string, timeout bool) {
	c.mu.Lock()
	if _, ok := c.members[m.id]; !ok {
		c.mu.Unlock()
		return // already removed (eviction raced the read error)
	}
	delete(c.members, m.id)
	c.freeRanks(m.ranks)
	c.unbuilt = true
	wasReady := c.ready
	c.ready = false
	c.losses++
	if timeout {
		c.timeouts++
	}
	closed, gen := c.closed, c.gen
	c.failCallsLocked(fmt.Errorf("worker %d (%s): %w", m.id, reason, ErrWorkerLost))
	survivors := snapshotMembers(c.members)
	if !closed {
		c.queueLocked(Event{Kind: EventLost, WorkerID: m.id, Ranks: m.ranks, Reason: reason})
	}
	c.mu.Unlock()

	m.conn.Close()
	if closed {
		return
	}
	c.logf("pworld: worker %d lost (%s), ranks %v freed", m.id, reason, m.ranks)
	if wasReady {
		// Survivors' mesh sockets may still look healthy (heartbeat
		// eviction of a hung peer); tell them their world is dead so
		// blocked epochs unwind now rather than at the next rebuild.
		for _, s := range survivors {
			s.send(&wireMsg{Kind: "down", Gen: gen, Reason: reason})
		}
	}
	c.flushEvents()
}

// failCallsLocked fails every in-flight call. Caller holds c.mu.
func (c *Coordinator) failCallsLocked(err error) {
	for id, cl := range c.calls {
		cl.err = err
		close(cl.done)
		delete(c.calls, id)
	}
}

// noteEpochDone merges one worker's epoch results into the owning call.
func (c *Coordinator) noteEpochDone(m *member, msg *wireMsg) {
	c.mu.Lock()
	cl := c.calls[msg.Epoch]
	if cl == nil || !cl.need[m.id] {
		c.mu.Unlock()
		return // call already failed or unknown — stale done
	}
	if msg.PeerLost {
		// The worker's world failed under it; its own loss event (or the
		// originating peer's) fails the call with the typed error.
		cl.err = fmt.Errorf("worker %d epoch %d: %s: %w", m.id, msg.Epoch, msg.Err, ErrWorkerLost)
		close(cl.done)
		delete(c.calls, msg.Epoch)
		c.mu.Unlock()
		return
	}
	delete(cl.need, m.id)
	for r, b := range msg.PerRank {
		cl.payloads[r] = b
	}
	if msg.Err != "" && (cl.err == nil || cl.aborted && !msg.Aborted) {
		cl.err = fmt.Errorf("worker %d epoch %d: %s", m.id, msg.Epoch, msg.Err)
		cl.aborted = msg.Aborted
	}
	if len(cl.need) == 0 {
		close(cl.done)
		delete(c.calls, msg.Epoch)
	}
	c.mu.Unlock()
}

// Run dispatches one epoch to every worker and blocks until all report
// completion. op names the operation for the workers' dispatch function;
// common is broadcast to every rank, and perRank[r] is delivered only to
// rank r. Returns the per-rank result payloads. read selects a concurrent
// (reader) epoch; exclusive epochs never overlap anything.
//
// Fails with ErrNotReady when the world is missing workers and with
// ErrWorkerLost when a worker dies mid-call — in both cases no result
// payloads are returned and any partial work on the workers is void.
func (c *Coordinator) Run(read bool, op string, common []byte, perRank map[int][]byte) (map[int][]byte, error) {
	c.dispatchMu.Lock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.dispatchMu.Unlock()
		return nil, fmt.Errorf("pworld: coordinator closed")
	}
	if !c.ready {
		c.mu.Unlock()
		c.dispatchMu.Unlock()
		return nil, ErrNotReady
	}
	c.epoch++
	id := c.epoch
	cl := &call{need: make(map[int]bool), payloads: make(map[int][]byte), done: make(chan struct{})}
	members := snapshotMembers(c.members)
	for _, m := range members {
		cl.need[m.id] = true
	}
	c.calls[id] = cl
	c.mu.Unlock()

	// Send the epoch to every worker while holding the dispatch lock:
	// this single point of serialization gives every worker the same
	// epoch arrival order, which is what keeps the distributed
	// reader/writer gates deadlock-free.
	for _, m := range members {
		msg := &wireMsg{Kind: "epoch", Epoch: id, Read: read, Op: op, Common: common}
		if perRank != nil {
			mine := make(map[int][]byte)
			for _, r := range m.ranks {
				if b, ok := perRank[r]; ok {
					mine[r] = b
				}
			}
			msg.PerRank = mine
		}
		if err := m.send(msg); err != nil {
			c.dispatchMu.Unlock()
			c.markLost(m, "epoch write: "+err.Error(), false)
			<-cl.done
			return nil, cl.err
		}
	}
	c.dispatchMu.Unlock()

	<-cl.done
	if cl.err != nil {
		return nil, cl.err
	}
	return cl.payloads, nil
}

func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		members := snapshotMembers(c.members)
		c.mu.Unlock()
		for _, m := range members {
			if m.sincePong() > c.cfg.HeartbeatTimeout {
				c.markLost(m, fmt.Sprintf("heartbeat timeout (%s)", c.cfg.HeartbeatTimeout), true)
				continue
			}
			m.send(&wireMsg{Kind: "ping"})
		}
	}
}
