package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
)

// ProcLink names one remote peer process of a process-spanning world: the
// connection to it and the global ranks it hosts. The connection must be a
// reliable ordered byte stream (TCP, unix socket, net.Pipe); the transport
// relies on per-link FIFO delivery.
type ProcLink struct {
	Conn  net.Conn
	Ranks []int
}

// NewProcWorld creates this process's endpoint of a world whose p ranks are
// partitioned across several OS processes. local lists the global ranks this
// process hosts (at least one); links names every peer process and the ranks
// it hosts. local plus all link ranks must partition [0, p) exactly; every
// participating process must be constructed with the same total shape.
//
// A proc world runs epochs only through RunEpochAt — epoch ids have to be
// assigned by a coordinator so every process runs the same epoch under the
// same id (that is what routes frames between processes to the right
// namespace). Run and RunRead return an error. Epoch bodies execute only on
// the local ranks; results and errors for remote ranks stay nil.
//
// When any link fails, the whole world is declared down exactly once: all
// connections close, every in-flight epoch aborts (its blocked receives
// unwind with ErrPeerLost), and later RunEpochAt calls fail fast with an
// error wrapping ErrPeerLost. Recovery is a new world over new connections,
// not a repaired one — undelivered frames died with the old sockets.
func NewProcWorld(p int, local []int, links []ProcLink, cfg Config) (*World, error) {
	if len(local) == 0 {
		return nil, fmt.Errorf("mpi: proc world with no local ranks")
	}
	w := NewWorld(p, cfg)
	seen := make([]bool, p)
	mark := func(ranks []int, who string) error {
		for _, r := range ranks {
			if r < 0 || r >= p {
				return fmt.Errorf("mpi: proc world rank %d out of range [0,%d)", r, p)
			}
			if seen[r] {
				return fmt.Errorf("mpi: proc world rank %d claimed twice (%s)", r, who)
			}
			seen[r] = true
		}
		return nil
	}
	if err := mark(local, "local"); err != nil {
		return nil, err
	}
	t := newProcWire(w)
	for i, lk := range links {
		if err := mark(lk.Ranks, fmt.Sprintf("link %d", i)); err != nil {
			return nil, err
		}
		if lk.Conn == nil {
			return nil, fmt.Errorf("mpi: proc world link %d has nil conn", i)
		}
		pl := t.addLink(lk.Conn)
		for _, dst := range lk.Ranks {
			for _, src := range local {
				t.route[src][dst] = pl
			}
		}
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("mpi: proc world rank %d unclaimed", r)
		}
	}
	w.local = append([]int(nil), local...)
	t.start()
	return w, nil
}

// NewTCPWorld creates a world whose ranks exchange messages over loopback
// TCP: a proc world whose ranks all live here, with one connection per rank
// pair. Its epochs run through Run and RunRead like a channel world's; only
// the wire is real. Close must be called to release the sockets. Intended
// for demonstrations and transport-level testing; the channel transport is
// faster for production simulation runs.
func NewTCPWorld(p int, cfg Config) (*World, error) {
	w := NewWorld(p, cfg)
	t := newProcWire(w)
	listeners := make([]net.Listener, p)
	defer func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	undo := func(err error) (*World, error) {
		t.closeLinks()
		return nil, err
	}
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return undo(fmt.Errorf("mpi: tcp listen: %w", err))
		}
		listeners[i] = ln
	}
	// Full mesh: rank j dials rank i's listener for every i < j. The kernel
	// completes the dial as soon as the connection is queued on the listen
	// backlog, so dial-then-accept in one goroutine is safe.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			dial, err := net.Dial("tcp", listeners[i].Addr().String())
			if err != nil {
				return undo(fmt.Errorf("mpi: tcp dial %d->%d: %w", j, i, err))
			}
			t.route[j][i] = t.addLink(dial)
			acc, err := listeners[i].Accept()
			if err != nil {
				return undo(fmt.Errorf("mpi: tcp accept %d<-%d: %w", i, j, err))
			}
			t.route[i][j] = t.addLink(acc)
		}
	}
	t.start()
	return w, nil
}

// procWire carries a world's messages over sockets: length-prefixed binary
// frames that name their src and dst ranks, and one reader goroutine per
// connection end. A proc world has one link per peer process, shared by all
// the rank pairs between the two processes; a loopback TCP world has one
// connection per rank pair, whose two ends both live here.
type procWire struct {
	w     *World
	route [][]*procPeer // route[src][dst]: the link a local src sends to dst on; nil within the process
	links []*procPeer   // every connection end this process holds
	done  chan struct{}
	wg    sync.WaitGroup

	failMu sync.Mutex
	down   error // first transport failure; world is dead once set
}

func newProcWire(w *World) *procWire {
	t := &procWire{w: w, done: make(chan struct{}), route: make([][]*procPeer, w.size)}
	for src := range t.route {
		t.route[src] = make([]*procPeer, w.size)
	}
	return t
}

func (t *procWire) addLink(conn net.Conn) *procPeer {
	pl := &procPeer{conn: conn, wtr: bufio.NewWriterSize(conn, 1<<16)}
	t.links = append(t.links, pl)
	return pl
}

// start attaches the wire to its world and starts one reader per link.
func (t *procWire) start() {
	t.w.regCond = sync.NewCond(&t.w.epochMu)
	t.w.proc = t
	for _, pl := range t.links {
		t.wg.Add(1)
		go t.readLoop(pl)
	}
}

func (t *procWire) closeLinks() {
	for _, pl := range t.links {
		pl.conn.Close()
	}
}

// procPeer is one connection end: the route senders write to, and the link
// its reader checks every frame's src and dst against. The mutex spans the
// whole frame write plus the eager flush so concurrent local senders never
// interleave frames.
type procPeer struct {
	conn net.Conn
	mu   sync.Mutex
	wtr  *bufio.Writer
}

// Frame layout: dst uint32 | src uint32 | tag uint32 | epoch uint32 |
// payload length uint32 | depart float64 bits | payload bytes. src and dst
// travel in the header because a proc world's link multiplexes every rank
// pair between two processes; the epoch id routes the frame to the namespace
// of the epoch it belongs to, so overlapping epochs can never cross.
const procFrameHeader = 4 + 4 + 4 + 4 + 4 + 8

// maxFrameBytes caps one frame's payload (the ceiling of a WAL record's
// payload, maxRecBytes in internal/snapshot). The length travels as a uint32
// a peer supplies: senders refuse a larger payload instead of letting the
// length wrap, read loops fail the world before allocating.
const maxFrameBytes = 1 << 30

func (pl *procPeer) writeFrame(src, dst, epoch int, m message) error {
	if len(m.data) > maxFrameBytes {
		return fmt.Errorf("payload of %d bytes exceeds the %d-byte frame limit", len(m.data), maxFrameBytes)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var hdr [procFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(dst))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(src))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.tag))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(epoch))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(m.data)))
	binary.LittleEndian.PutUint64(hdr[20:], math.Float64bits(m.depart))
	if _, err := pl.wtr.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := pl.wtr.Write(m.data); err != nil {
		return err
	}
	// Flush eagerly: the receiver may be blocked on exactly this message.
	return pl.wtr.Flush()
}

// abort tells every peer process that local rank src failed in epoch: one
// frame on each link, on the reserved tag, which the peer's reader turns
// into a stop of that epoch.
func (t *procWire) abort(src, epoch int) {
	for _, pl := range t.links {
		if dst := slices.Index(t.route[src], pl); dst >= 0 {
			t.send(src, dst, epoch, message{tag: tagAbort})
		}
	}
}

// send writes one frame; any failure declares the world down and comes
// back wrapping ErrPeerLost.
func (t *procWire) send(src, dst, epoch int, m message) error {
	if err := t.route[src][dst].writeFrame(src, dst, epoch, m); err != nil {
		t.fail(fmt.Errorf("mpi: proc send %d->%d: %w", src, dst, err))
		return fmt.Errorf("mpi: proc send %d->%d (%v): %w", src, dst, err, ErrPeerLost)
	}
	return nil
}

// fail declares the world down exactly once: it records the first error,
// closes every link (unwedging all reader goroutines and blocked writers),
// aborts every in-flight epoch, and wakes readers parked on epoch
// registration. Everything blocked on the wire unwinds with ErrPeerLost.
func (t *procWire) fail(err error) {
	t.failMu.Lock()
	if t.down != nil {
		t.failMu.Unlock()
		return
	}
	t.down = err
	t.failMu.Unlock()
	t.closeLinks()
	t.w.epochMu.Lock()
	t.w.regStop = true
	t.w.regCond.Broadcast()
	for _, ep := range t.w.active {
		ep.stop(ErrPeerLost)
	}
	t.w.epochMu.Unlock()
}

// downErr reports the wire's terminal failure, if any, wrapped so callers
// can errors.Is(err, ErrPeerLost).
func (t *procWire) downErr() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.down != nil {
		return fmt.Errorf("mpi: world down (%v): %w", t.down, ErrPeerLost)
	}
	return nil
}

// shutdown is the orderly Close path: close the links, wake parked readers,
// wait out the reader goroutines, and report the first failure (nil when the
// world was healthy until Close).
func (t *procWire) shutdown() error {
	close(t.done)
	t.closeLinks()
	t.w.epochMu.Lock()
	t.w.regStop = true
	t.w.regCond.Broadcast()
	t.w.epochMu.Unlock()
	t.wg.Wait()
	t.failMu.Lock()
	defer t.failMu.Unlock()
	return t.down
}

// waitEpoch returns the namespace of epoch id, parking until some local
// epoch registers it. An error-free epoch consumes every message sent to
// it, so only an errored epoch can leave frames behind, and runEpoch retires
// its id: a frame for a retired id returns nil and is dropped. A frame for
// any other unregistered id is early, not late — processes start epochs with
// skew — and the messages behind it must wait. Blocking the link here is
// deadlock-free because links are FIFO — every frame of every earlier epoch
// on this link has already been delivered, and epoch ids are dispatched to
// all processes in one global order, so the registration this parks on never
// depends on frames behind the parked one. Also returns nil when the world is
// shut down or declared down; the link is closed then, and the next read
// ends the loop.
func (w *World) waitEpoch(id int) *epochState {
	w.epochMu.RLock()
	ep := w.active[id]
	w.epochMu.RUnlock()
	if ep != nil {
		return ep
	}
	w.epochMu.Lock()
	defer w.epochMu.Unlock()
	for w.active[id] == nil && !w.retired[id] && !w.regStop {
		w.regCond.Wait()
	}
	return w.active[id]
}

// stopRemote stops epoch id after a rank of another process failed in it. An
// id not registered here belongs to an epoch that has not started yet or has
// ended; retiring it aborts the first at birth and drops late frames of
// either.
func (w *World) stopRemote(id int) {
	w.epochMu.Lock()
	defer w.epochMu.Unlock()
	if ep := w.active[id]; ep != nil {
		ep.stop(ErrAborted)
		return
	}
	w.retired[id] = true
	w.regCond.Broadcast()
}

func (t *procWire) readLoop(pl *procPeer) {
	defer t.wg.Done()
	r := bufio.NewReaderSize(pl.conn, 1<<16)
	var hdr [procFrameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			select {
			case <-t.done:
				return // orderly shutdown
			default:
			}
			t.fail(fmt.Errorf("mpi: proc read: %w", err))
			return
		}
		dst := int(binary.LittleEndian.Uint32(hdr[0:]))
		src := int(binary.LittleEndian.Uint32(hdr[4:]))
		m := message{
			tag:    int(int32(binary.LittleEndian.Uint32(hdr[8:]))),
			depart: math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:])),
		}
		epoch := int(binary.LittleEndian.Uint32(hdr[12:]))
		n := binary.LittleEndian.Uint32(hdr[16:])
		if n > maxFrameBytes {
			t.fail(fmt.Errorf("mpi: proc read: frame %d<-%d announces %d bytes, limit %d", dst, src, n, maxFrameBytes))
			return
		}
		m.data = make([]byte, n)
		if _, err := io.ReadFull(r, m.data); err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			t.fail(fmt.Errorf("mpi: proc read: %w", err))
			return
		}
		// A frame is only valid on the link its dst's route from src names.
		if dst < 0 || dst >= t.w.size || src < 0 || src >= t.w.size || t.route[dst][src] != pl {
			t.fail(fmt.Errorf("mpi: proc frame %d<-%d on a link that does not carry it", dst, src))
			return
		}
		if m.tag == tagAbort {
			t.w.stopRemote(epoch)
			continue
		}
		ep := t.w.waitEpoch(epoch)
		if ep == nil {
			continue // late frame of a retired epoch, or the world is stopping
		}
		if !ep.deliver(dst, src, m, overflowFactor*t.w.pairCap) {
			t.fail(fmt.Errorf("mpi: proc read: rank %d holds %d frames from rank %d beyond its mailbox in epoch %d and does not take them",
				dst, overflowFactor*t.w.pairCap, src, epoch))
			return
		}
	}
}

// overflowFactor bounds, in mailbox capacities (Config.PairCap), how many
// frames one mailbox of a socket world may hold beyond its capacity before
// the world fails: the senders of a correct SPMD program run ahead of their
// receivers by a bounded skew. The bound counts frames, not bytes: what the
// overflow holds in memory is up to that many frames of up to maxFrameBytes
// each, and the socket no longer slows a sender whose receiver lags. The
// bound is loose on purpose: the coordinator-and-workers benchmark workload
// (PairCap 16) never queues a single frame in an overflow, so only a sender
// that never waits for its receiver reaches it.
const overflowFactor = 256
