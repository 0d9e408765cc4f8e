package pworld

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tc2d/internal/mpi"
)

// DispatchFunc executes one operation on one rank inside an epoch. op names
// the operation, common is the payload broadcast to all ranks, and mine is
// the payload addressed to this rank (nil when none). The returned bytes
// travel back to the coordinator as this rank's result.
type DispatchFunc func(c *mpi.Comm, op string, common, mine []byte) ([]byte, error)

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's control address to dial. Required.
	Coordinator string
	// Ranks is how many (contiguous) global ranks this process hosts.
	// Default 1.
	Ranks int
	// Listen is the address for the rank-traffic mesh listener. Default
	// "127.0.0.1:0". The resolved address is advertised to peers, so for
	// multi-host deployments it must be reachable from the other workers.
	Listen string
	// Format is the wire/snapshot format version; must match the
	// coordinator's.
	Format int
	// MPI configures the local endpoint of the process-spanning world
	// (cost model, compute slots, metrics registry).
	MPI mpi.Config
	// Dispatch executes epoch operations. Required.
	Dispatch DispatchFunc
	// OnReady, when non-nil, is called with this worker's global ranks
	// each time a mesh generation completes locally (the world is built
	// and usable).
	OnReady func(ranks []int)
	// Logf, when non-nil, receives protocol-level log lines.
	Logf func(format string, args ...any)
}

// meshMagic opens every mesh connection preamble, followed by the build
// generation and the dialing worker's id (all uint32). A mismatched magic
// means something other than a peer worker dialed the mesh port.
const meshMagic = 0x7c2d5019

// meshStash holds mesh connections accepted for builds that have not
// consumed them yet. Accepting is decoupled from building: a peer working
// on a newer generation may dial in before this worker has even seen that
// generation's start message, and its connection must wait, not be dropped.
type meshStash struct {
	mu     sync.Mutex
	cond   *sync.Cond
	conns  map[[2]int]net.Conn // {gen, peerID} → conn
	latest int                 // newest generation this worker was told to build
	closed bool
}

func newMeshStash() *meshStash {
	s := &meshStash{conns: make(map[[2]int]net.Conn)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *meshStash) put(gen, id int, conn net.Conn) {
	s.mu.Lock()
	if s.closed || gen < s.latest || s.conns[[2]int{gen, id}] != nil {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[[2]int{gen, id}] = conn
	s.cond.Broadcast()
	s.mu.Unlock()
}

// advance marks gen the build target, closing stashed connections from
// older generations and waking any builder parked on a superseded wait.
func (s *meshStash) advance(gen int) {
	s.mu.Lock()
	if gen > s.latest {
		s.latest = gen
		for k, conn := range s.conns {
			if k[0] < gen {
				conn.Close()
				delete(s.conns, k)
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// take blocks until the (gen, id) connection arrives, the generation is
// superseded, or the stash closes. Returns nil in the latter two cases.
func (s *meshStash) take(gen, id int) net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if conn := s.conns[[2]int{gen, id}]; conn != nil {
			delete(s.conns, [2]int{gen, id})
			return conn
		}
		if s.closed || s.latest > gen {
			return nil
		}
		s.cond.Wait()
	}
}

func (s *meshStash) close() {
	s.mu.Lock()
	s.closed = true
	for k, conn := range s.conns {
		conn.Close()
		delete(s.conns, k)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// worker is the state of one RunWorker invocation.
type worker struct {
	cfg   WorkerConfig
	id    int
	world int // total ranks p

	conn  net.Conn
	enc   *gob.Encoder
	encMu sync.Mutex

	meshLn net.Listener
	stash  *meshStash

	gate sync.RWMutex // local epoch admission, in coordinator dispatch order

	mu    sync.Mutex
	w     *mpi.World
	ranks []int
	gen   int
}

func (wk *worker) logf(format string, args ...any) {
	if wk.cfg.Logf != nil {
		wk.cfg.Logf(format, args...)
	}
}

func (wk *worker) send(msg *wireMsg) error {
	wk.encMu.Lock()
	defer wk.encMu.Unlock()
	return wk.enc.Encode(msg)
}

// RunWorker hosts cfg.Ranks ranks of a coordinator's world in this process
// and serves epochs until the context is cancelled (graceful leave), the
// coordinator shuts down (returns nil), or the control connection fails.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Dispatch == nil {
		return fmt.Errorf("pworld: WorkerConfig.Dispatch is required")
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	meshLn, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return fmt.Errorf("pworld: mesh listen: %w", err)
	}
	defer meshLn.Close()

	conn, err := net.Dial("tcp", cfg.Coordinator)
	if err != nil {
		return fmt.Errorf("pworld: dial coordinator %s: %w", cfg.Coordinator, err)
	}
	defer conn.Close()

	wk := &worker{cfg: cfg, conn: conn, enc: gob.NewEncoder(conn), meshLn: meshLn, stash: newMeshStash()}
	defer wk.stash.close()
	defer wk.closeWorld("worker shutting down")

	go wk.meshAcceptLoop()

	if err := wk.send(&wireMsg{Kind: "join", WantRanks: cfg.Ranks, Format: cfg.Format, MeshAddr: meshLn.Addr().String()}); err != nil {
		return fmt.Errorf("pworld: join: %w", err)
	}
	dec := gob.NewDecoder(conn)
	var welcome wireMsg
	if err := dec.Decode(&welcome); err != nil {
		return fmt.Errorf("pworld: welcome: %w", err)
	}
	if welcome.Reject != "" {
		return fmt.Errorf("pworld: join rejected: %s", welcome.Reject)
	}
	wk.id = welcome.WorkerID
	wk.world = welcome.World
	wk.logf("pworld: joined as worker %d of a %d-rank world (mesh %s)", wk.id, wk.world, meshLn.Addr())

	// Graceful leave: context cancellation sends leave and closes the
	// control connection, which unblocks the decode loop below.
	leaveCtx, cancelLeave := context.WithCancel(ctx)
	defer cancelLeave()
	go func() {
		<-leaveCtx.Done()
		if ctx.Err() != nil {
			wk.send(&wireMsg{Kind: "leave"})
			conn.Close()
		}
	}()

	for {
		var msg wireMsg
		if err := dec.Decode(&msg); err != nil {
			if ctx.Err() != nil {
				return nil // graceful leave
			}
			return fmt.Errorf("pworld: coordinator connection: %w", err)
		}
		switch msg.Kind {
		case "ping":
			wk.send(&wireMsg{Kind: "pong"})
		case "start":
			wk.stash.advance(msg.Gen)
			go wk.build(msg.Gen, msg.Peers)
		case "down":
			wk.abortWorld(msg.Gen, "coordinator reported world down: "+msg.Reason)
		case "epoch":
			// Admit the epoch into the local gate here, in arrival order
			// — which the coordinator made identical on every worker —
			// then run it concurrently. The lock is released by the
			// epoch goroutine (legal for sync.RWMutex).
			if msg.Read {
				wk.gate.RLock()
				go func(m wireMsg) { defer wk.gate.RUnlock(); wk.runEpoch(&m) }(msg)
			} else {
				wk.gate.Lock()
				go func(m wireMsg) { defer wk.gate.Unlock(); wk.runEpoch(&m) }(msg)
			}
		case "shutdown":
			return nil
		}
	}
}

// meshAcceptLoop accepts rank-traffic connections from higher-id peers and
// stashes them by (generation, dialer id) for the build that wants them.
func (wk *worker) meshAcceptLoop() {
	for {
		conn, err := wk.meshLn.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			var pre [12]byte
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(conn, pre[:]); err != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			if binary.LittleEndian.Uint32(pre[0:]) != meshMagic {
				conn.Close()
				return
			}
			gen := int(binary.LittleEndian.Uint32(pre[4:]))
			id := int(binary.LittleEndian.Uint32(pre[8:]))
			wk.stash.put(gen, id, conn)
		}(conn)
	}
}

// closeWorld retires the current world, if any: aborts it so in-flight
// epochs unwind, then closes it (waiting those epochs out).
func (wk *worker) closeWorld(reason string) {
	wk.mu.Lock()
	w := wk.w
	wk.w = nil
	wk.mu.Unlock()
	if w != nil {
		w.Abort(reason)
		w.Close()
	}
}

// abortWorld aborts the current world if it is generation gen, so in-flight
// epochs unwind; a world of any other generation is left alone.
func (wk *worker) abortWorld(gen int, reason string) {
	wk.mu.Lock()
	w := wk.w
	if wk.gen != gen {
		w = nil
	}
	wk.mu.Unlock()
	if w != nil {
		w.Abort(reason)
	}
}

// build constructs generation gen of the mesh: dial every lower-id peer
// (sending the preamble), collect connections from every higher-id peer,
// stand up the process-spanning world, and ack with "started". A newer
// generation arriving mid-build cancels this one through the stash.
func (wk *worker) build(gen int, peers []PeerInfo) {
	wk.closeWorld(fmt.Sprintf("mesh rebuild for generation %d", gen))

	var myRanks []int
	for _, p := range peers {
		if p.ID == wk.id {
			myRanks = p.Ranks
		}
	}
	if myRanks == nil {
		wk.logf("pworld: build gen %d: not in peer list", gen)
		return
	}

	var links []mpi.ProcLink
	ok := true
	for _, p := range peers {
		if p.ID == wk.id {
			continue
		}
		var conn net.Conn
		if p.ID < wk.id {
			conn = wk.dialPeer(gen, p)
		} else {
			conn = wk.stash.take(gen, p.ID)
		}
		if conn == nil {
			ok = false
			break
		}
		links = append(links, mpi.ProcLink{Conn: conn, Ranks: p.Ranks})
	}
	if !ok {
		for _, l := range links {
			l.Conn.Close()
		}
		wk.logf("pworld: build gen %d abandoned", gen)
		return
	}

	w, err := mpi.NewProcWorld(wk.world, myRanks, links, wk.cfg.MPI)
	if err != nil {
		for _, l := range links {
			l.Conn.Close()
		}
		wk.logf("pworld: build gen %d: %v", gen, err)
		return
	}
	wk.mu.Lock()
	stale := wk.gen > gen
	if !stale {
		wk.w, wk.ranks, wk.gen = w, myRanks, gen
	}
	wk.mu.Unlock()
	if stale {
		w.Abort("superseded generation")
		w.Close()
		return
	}
	wk.logf("pworld: mesh generation %d built, hosting ranks %v", gen, myRanks)
	if wk.cfg.OnReady != nil {
		wk.cfg.OnReady(myRanks)
	}
	wk.send(&wireMsg{Kind: "started", Gen: gen})
}

// dialPeer connects to a lower-id peer's mesh listener and sends the
// preamble, retrying briefly — the peer advertised its listener at join
// time, so it is already up, but SYN backlogs can still reject under load.
func (wk *worker) dialPeer(gen int, p PeerInfo) net.Conn {
	var lastErr error
	for attempt := 0; attempt < 40; attempt++ {
		conn, err := net.Dial("tcp", p.Addr)
		if err == nil {
			var pre [12]byte
			binary.LittleEndian.PutUint32(pre[0:], meshMagic)
			binary.LittleEndian.PutUint32(pre[4:], uint32(gen))
			binary.LittleEndian.PutUint32(pre[8:], uint32(wk.id))
			if _, err = conn.Write(pre[:]); err == nil {
				return conn
			}
			conn.Close()
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	wk.logf("pworld: dial peer %d (%s): %v", p.ID, p.Addr, lastErr)
	return nil
}

// runEpoch executes one dispatched epoch on this process's ranks and sends
// the per-rank payloads (or the error) back.
func (wk *worker) runEpoch(m *wireMsg) {
	wk.mu.Lock()
	w, ranks := wk.w, wk.ranks
	wk.mu.Unlock()

	done := &wireMsg{Kind: "epochDone", Epoch: m.Epoch}
	if w == nil {
		done.Err, done.PeerLost = "no world built", true
		wk.send(done)
		return
	}
	results, err := w.RunEpochAt(m.Epoch, m.Read, func(c *mpi.Comm) (any, error) {
		return wk.cfg.Dispatch(c, m.Op, m.Common, m.PerRank[c.Rank()])
	})
	if err != nil {
		done.Err = err.Error()
		done.PeerLost = errors.Is(err, mpi.ErrPeerLost)
		done.Aborted = errors.Is(err, mpi.ErrAborted)
		wk.send(done)
		return
	}
	done.PerRank = make(map[int][]byte, len(ranks))
	for _, r := range ranks {
		if b, ok := results[r].([]byte); ok && b != nil {
			done.PerRank[r] = b
		}
	}
	wk.send(done)
}
