package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
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
	t := &procWire{w: w, done: make(chan struct{}), peers: make([]*procPeer, p)}
	for i, lk := range links {
		if err := mark(lk.Ranks, fmt.Sprintf("link %d", i)); err != nil {
			return nil, err
		}
		if lk.Conn == nil {
			return nil, fmt.Errorf("mpi: proc world link %d has nil conn", i)
		}
		pl := &procPeer{conn: lk.Conn, wtr: bufio.NewWriterSize(lk.Conn, 1<<16)}
		t.links = append(t.links, pl)
		for _, r := range lk.Ranks {
			t.peers[r] = pl
		}
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("mpi: proc world rank %d unclaimed", r)
		}
	}
	w.local = append([]int(nil), local...)
	w.isLocal = make([]bool, p)
	for _, r := range local {
		w.isLocal[r] = true
	}
	w.regCond = sync.NewCond(&w.epochMu)
	w.proc = t
	for _, pl := range t.links {
		t.wg.Add(1)
		go t.readLoop(pl)
	}
	return w, nil
}

// procWire carries messages between the processes of a proc world: one
// connection per peer process (shared by all of that process's ranks),
// length-prefixed binary frames extended with explicit src/dst ranks, and
// one reader goroutine per link.
type procWire struct {
	w     *World
	peers []*procPeer // indexed by global rank; nil for local ranks
	links []*procPeer // one per peer process
	done  chan struct{}
	wg    sync.WaitGroup

	failMu sync.Mutex
	down   error // first transport failure; world is dead once set
}

// procPeer is the write side of one link. The mutex spans the whole frame
// write plus the eager flush so concurrent local senders never interleave
// frames.
type procPeer struct {
	conn net.Conn
	mu   sync.Mutex
	wtr  *bufio.Writer
}

// Proc frame layout: dst uint32 | src uint32 | tag uint32 | epoch uint32 |
// payload length uint32 | depart float64 bits | payload bytes. Unlike the
// loopback tcpWire (one socket per rank pair), one link multiplexes every
// rank pair between two processes, so src and dst travel in the header.
const procFrameHeader = 4 + 4 + 4 + 4 + 4 + 8

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

// send writes one frame; any failure declares the world down and comes
// back wrapping ErrPeerLost.
func (t *procWire) send(src, dst, epoch int, m message) error {
	if err := t.peers[dst].writeFrame(src, dst, epoch, m); err != nil {
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
	for _, pl := range t.links {
		pl.conn.Close()
	}
	t.w.epochMu.Lock()
	t.w.regStop = true
	t.w.regCond.Broadcast()
	for _, ep := range t.w.active {
		if ep.abort != nil && !ep.aborted {
			ep.aborted = true
			close(ep.abort)
		}
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
	for _, pl := range t.links {
		pl.conn.Close()
	}
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
// RunEpochAt registers it. Unlike the loopback transport, a frame for an
// unregistered epoch cannot be dropped: processes start epochs with skew, so
// a frame arriving early is normal and the messages behind it must wait.
// Blocking the link here is deadlock-free because links are FIFO — every
// frame of every earlier epoch on this link has already been delivered, and
// epoch ids are dispatched to all processes in one global order, so the
// registration this parks on never depends on frames behind the parked one.
// Returns nil when the world is shut down or declared down instead.
func (w *World) waitEpoch(id int) *epochState {
	w.epochMu.RLock()
	ep := w.active[id]
	w.epochMu.RUnlock()
	if ep != nil {
		return ep
	}
	w.epochMu.Lock()
	defer w.epochMu.Unlock()
	for w.active[id] == nil && !w.regStop {
		w.regCond.Wait()
	}
	return w.active[id]
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
		if dst < 0 || dst >= t.w.size || !t.w.isLocal[dst] || src < 0 || src >= t.w.size {
			t.fail(fmt.Errorf("mpi: proc frame for foreign rank %d<-%d", dst, src))
			return
		}
		ep := t.w.waitEpoch(epoch)
		if ep == nil {
			return // world shut down while parked
		}
		select {
		case ep.mail[dst][src] <- m:
		case <-ep.abort:
			// Epoch aborted while its mailbox was full: its ranks are
			// unwinding, not receiving. Drop the frame and move on.
		case <-t.done:
			return
		}
	}
}
