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

// tcpWire carries messages over loopback TCP sockets instead of in-process
// channels: one full-duplex connection per rank pair, length-prefixed binary
// frames, and one reader goroutine per connection endpoint that deposits
// decoded messages into the world's mailboxes. The SPMD programming model
// and the virtual-time accounting are identical to the channel transport —
// only the wire is real.
type tcpWire struct {
	conns   [][]net.Conn // conns[me][peer], nil on the diagonal
	writers [][]*bufio.Writer
	mu      [][]sync.Mutex // one writer lock per endpoint (flush safety)
	done    chan struct{}
	wg      sync.WaitGroup

	failMu sync.Mutex
	err    error // first read-loop failure; Close reports it
}

// NewTCPWorld creates a world whose ranks exchange messages over loopback
// TCP. Close must be called to release the sockets. Intended for
// demonstrations and transport-level testing; the channel transport is
// faster for production simulation runs.
func NewTCPWorld(p int, cfg Config) (*World, error) {
	w := NewWorld(p, cfg)
	wire := &tcpWire{done: make(chan struct{})}
	wire.conns = make([][]net.Conn, p)
	wire.writers = make([][]*bufio.Writer, p)
	wire.mu = make([][]sync.Mutex, p)
	for i := 0; i < p; i++ {
		wire.conns[i] = make([]net.Conn, p)
		wire.writers[i] = make([]*bufio.Writer, p)
		wire.mu[i] = make([]sync.Mutex, p)
	}

	// Full-mesh setup: rank j dials rank i's listener for every i < j. The
	// kernel completes the dial as soon as the connection is queued on the
	// listen backlog, so dial-then-accept in one goroutine is safe.
	listeners := make([]net.Listener, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			wire.closeAll()
			return nil, fmt.Errorf("mpi: tcp listen: %w", err)
		}
		listeners[i] = ln
	}
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			dial, err := net.Dial("tcp", listeners[i].Addr().String())
			if err != nil {
				wire.closeAll()
				return nil, fmt.Errorf("mpi: tcp dial %d->%d: %w", j, i, err)
			}
			acc, err := listeners[i].Accept()
			if err != nil {
				dial.Close()
				wire.closeAll()
				return nil, fmt.Errorf("mpi: tcp accept %d<-%d: %w", i, j, err)
			}
			wire.conns[j][i] = dial
			wire.conns[i][j] = acc
			wire.writers[j][i] = bufio.NewWriterSize(dial, 1<<16)
			wire.writers[i][j] = bufio.NewWriterSize(acc, 1<<16)
		}
	}

	// Reader goroutines: endpoint (me, peer) feeds mail[me][peer].
	for me := 0; me < p; me++ {
		for peer := 0; peer < p; peer++ {
			if me == peer {
				continue
			}
			wire.wg.Add(1)
			go wire.readLoop(w, me, peer)
		}
	}
	w.wire = wire
	return w, nil
}

func (t *tcpWire) closeAll() {
	for _, row := range t.conns {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
}

func (t *tcpWire) fail(err error) {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.err == nil {
		t.err = err
	}
}

// failure returns the first read-loop failure, if any.
func (t *tcpWire) failure() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	return t.err
}

// Frame layout: tag uint32 | epoch uint32 | payload length uint32 |
// depart float64 bits | payload bytes. The epoch id routes the frame to
// the namespace of the epoch it belongs to, so frames of overlapping read
// epochs sharing one connection can never cross.
const frameHeader = 4 + 4 + 4 + 8

// maxFrameBytes caps one socket frame's payload on both socket transports
// (the ceiling internal/repl uses for its records). The length travels as a
// uint32 a peer supplies: senders refuse a larger payload instead of letting
// the length wrap, read loops fail the world before allocating.
const maxFrameBytes = 1 << 30

func (t *tcpWire) send(me, dst, epoch int, m message) error {
	if len(m.data) > maxFrameBytes {
		return fmt.Errorf("mpi: tcp send %d->%d: payload of %d bytes exceeds the %d-byte frame limit", me, dst, len(m.data), maxFrameBytes)
	}
	t.mu[me][dst].Lock()
	defer t.mu[me][dst].Unlock()
	wtr := t.writers[me][dst]
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.tag))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(epoch))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(m.data)))
	binary.LittleEndian.PutUint64(hdr[12:], math.Float64bits(m.depart))
	if _, err := wtr.Write(hdr[:]); err != nil {
		return fmt.Errorf("mpi: tcp send %d->%d: %w", me, dst, err)
	}
	if _, err := wtr.Write(m.data); err != nil {
		return fmt.Errorf("mpi: tcp send %d->%d: %w", me, dst, err)
	}
	// Flush eagerly: the receiver may be blocked on exactly this message.
	if err := wtr.Flush(); err != nil {
		return fmt.Errorf("mpi: tcp flush %d->%d: %w", me, dst, err)
	}
	return nil
}

func (t *tcpWire) readLoop(w *World, me, peer int) {
	defer t.wg.Done()
	r := bufio.NewReaderSize(t.conns[me][peer], 1<<16)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			select {
			case <-t.done:
				return // orderly shutdown
			default:
			}
			t.fail(fmt.Errorf("mpi: tcp read %d<-%d: %w", me, peer, err))
			return
		}
		m := message{
			tag:    int(int32(binary.LittleEndian.Uint32(hdr[0:]))),
			depart: math.Float64frombits(binary.LittleEndian.Uint64(hdr[12:])),
		}
		epoch := int(binary.LittleEndian.Uint32(hdr[4:]))
		n := binary.LittleEndian.Uint32(hdr[8:])
		if n > maxFrameBytes {
			t.fail(fmt.Errorf("mpi: tcp read %d<-%d: frame announces %d bytes, limit %d", me, peer, n, maxFrameBytes))
			return
		}
		m.data = make([]byte, n)
		if _, err := io.ReadFull(r, m.data); err != nil {
			t.fail(fmt.Errorf("mpi: tcp read %d<-%d: %w", me, peer, err))
			return
		}
		// Route to the owning epoch's namespace. An epoch is registered
		// before any of its ranks start and deregistered only after all of
		// them finish, so a missing entry means the frame belongs to an
		// errored epoch that already ended — drop it (an errored world must
		// be Closed, and stalling this shared read loop would wedge the
		// epochs that are still healthy).
		w.epochMu.RLock()
		ep := w.active[epoch]
		w.epochMu.RUnlock()
		if ep == nil {
			continue
		}
		select {
		case ep.mail[me][peer] <- m:
		case <-t.done:
			return
		}
	}
}
