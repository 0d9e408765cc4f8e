package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sendPayload is one epoch in which rank 0 ships n patterned bytes to rank 1,
// which checks them.
func sendPayload(t *testing.T, n int) RankFunc {
	want := bytes.Repeat([]byte{0xA5, 0x5A}, n/2)
	return func(c *Comm) (any, error) {
		switch c.Rank() {
		case 0:
			c.Send(1, 4, want)
		case 1:
			if got := c.Recv(0, 4); !bytes.Equal(got, want) {
				t.Errorf("%d-byte frame arrived corrupt (%d bytes)", n, len(got))
			}
		}
		return nil, nil
	}
}

// allocatedWhile returns the bytes the process allocated while fn ran.
func allocatedWhile(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// waitFor polls cond until it holds, failing the test after 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A socket frame's length is whatever the peer wrote. The read loop must
// refuse a length above maxFrameBytes before allocating for it — and still
// carry an ordinary 64 KiB frame.
func TestProcFrameLengthIsBounded(t *testing.T) {
	wa, wb := twoProcWorlds(t, 2, []int{0}, []int{1})
	if _, _, ea, eb := runBoth(wa, wb, 1, false, sendPayload(t, 64<<10)); ea != nil || eb != nil {
		t.Fatalf("64 KiB frame: %v / %v", ea, eb)
	}

	// B's side of the link.
	grew := allocatedWhile(func() {
		forgeOversizedFrame(t, wb.proc.links[0].conn, 2)
		waitFor(t, "world A to go down", func() bool { return wa.proc.downErr() != nil })
	})
	if grew >= 1<<20 {
		t.Errorf("a forged 2 GiB length made the reader allocate %d bytes", grew)
	}
	_, err := wa.RunEpochAt(2, false, func(*Comm) (any, error) { return nil, nil })
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("world A after a forged length: want ErrPeerLost, got %v", err)
	}
}

// forgeOversizedFrame writes, by hand on conn, the header of a frame for
// rank 0 from rank 1 in epoch id that announces 2 GiB.
func forgeOversizedFrame(t *testing.T, conn net.Conn, id int) {
	t.Helper()
	var hdr [procFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0)
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(id))
	binary.LittleEndian.PutUint32(hdr[16:], 2<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("forged header: %v", err)
	}
}

// On a loopback world the same forged length fails the wire, and the rank
// blocked in Recv unwinds with ErrPeerLost instead of waiting forever.
func TestTCPFrameLengthIsBounded(t *testing.T) {
	w, err := NewTCPWorld(2, Config{ComputeSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(sendPayload(t, 64<<10)); err != nil {
		t.Fatalf("64 KiB frame: %v", err)
	}

	blocked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(func(c *Comm) (any, error) {
			if c.Rank() == 0 {
				close(blocked)
				c.Recv(1, 4)
			}
			return nil, nil
		})
		done <- err
	}()
	<-blocked
	grew := allocatedWhile(func() {
		// Rank 1's end of the pair connection.
		forgeOversizedFrame(t, w.proc.route[1][0].conn, 2)
		waitFor(t, "the world to go down", func() bool { return w.proc.downErr() != nil })
	})
	if grew >= 1<<20 {
		t.Errorf("a forged 2 GiB length made the reader allocate %d bytes", grew)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerLost) {
			t.Errorf("epoch blocked in Recv: want ErrPeerLost, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the rank blocked in Recv did not unwind after the wire failed")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported no transport failure after a forged length")
	}
}

// TestProcMailboxOverflowIsBounded: a socket reader queues the frames for a
// full mailbox instead of blocking on it, but only overflowFactor mailboxes'
// worth: past that the receiver is not keeping up with its sender, and the
// world fails, unwinding the ranks that wait with ErrPeerLost. Ranks {0,2} |
// {1}: rank 0 floods rank 1, which waits on rank 2.
func TestProcMailboxOverflowIsBounded(t *testing.T) {
	watchdog(t, 60*time.Second)
	ca, cb := net.Pipe()
	cfg := Config{PairCap: 1}
	wa, err := NewProcWorld(3, []int{0, 2}, []ProcLink{{Conn: ca, Ranks: []int{1}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewProcWorld(3, []int{1}, []ProcLink{{Conn: cb, Ranks: []int{0, 2}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close(); wb.Close() })
	_, _, ea, eb := runBoth(wa, wb, 1, false, func(c *Comm) (any, error) {
		switch c.Rank() {
		case 0:
			for i := 0; i <= overflowFactor*cfg.PairCap+cfg.PairCap; i++ {
				c.Send(1, 9, []byte{byte(i)})
			}
		case 1:
			c.Recv(2, 7)
		case 2:
			c.Recv(1, 7)
		}
		return nil, nil
	})
	if !errors.Is(ea, ErrPeerLost) || !errors.Is(eb, ErrPeerLost) {
		t.Fatalf("epoch errors %v / %v, want ErrPeerLost on both sides", ea, eb)
	}
	if err := wb.proc.downErr(); err == nil || !strings.Contains(err.Error(), "does not take them") {
		t.Fatalf("world B is down with %v, want the overflow named", err)
	}
}

// TestProcMailboxOverflowKeepsEveryFrame: with a one-frame mailbox, a
// sender in another process runs bursts ahead of its receiver, so the
// socket reader queues most frames in the overflow while the receiver takes
// them out. Every frame must arrive, in send order, and none may be left in
// the overflow behind an empty mailbox, which would park the receiver for
// good. Bursts stay well inside the overflow bound: the receiver acknowledges
// each one.
func TestProcMailboxOverflowKeepsEveryFrame(t *testing.T) {
	watchdog(t, 60*time.Second)
	const rounds, burst = 100, 64
	ca, cb := net.Pipe()
	cfg := Config{PairCap: 1}
	wa, err := NewProcWorld(2, []int{0}, []ProcLink{{Conn: ca, Ranks: []int{1}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewProcWorld(2, []int{1}, []ProcLink{{Conn: cb, Ranks: []int{0}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close(); wb.Close() })
	_, _, ea, eb := runBoth(wa, wb, 1, false, func(c *Comm) (any, error) {
		var buf [4]byte
		for r := 0; r < rounds; r++ {
			for i := 0; i < burst; i++ {
				seq := uint32(r*burst + i)
				if c.Rank() == 0 {
					binary.LittleEndian.PutUint32(buf[:], seq)
					c.Send(1, 9, buf[:])
				} else if got := binary.LittleEndian.Uint32(c.Recv(0, 9)); got != seq {
					return nil, fmt.Errorf("frame %d arrived as frame %d", got, seq)
				}
			}
			if c.Rank() == 0 {
				c.Recv(1, 8)
			} else {
				c.Send(0, 8, nil)
			}
		}
		return nil, nil
	})
	if ea != nil || eb != nil {
		t.Fatalf("epoch errors %v / %v", ea, eb)
	}
}

// TestProcAbortedEpochDropsFrames: once an epoch has aborted, a socket
// reader drops the frames a remote sender that has not heard of the abort
// keeps sending, rather than queueing them until the overflow bound fails
// the whole world. Ranks {0} | {1,2}: rank 1 fails, rank 2 holds the epoch
// open until rank 0 has flooded rank 1 past the bound, and rank 0 then
// waits and unwinds. The next epoch runs normally.
func TestProcAbortedEpochDropsFrames(t *testing.T) {
	watchdog(t, 60*time.Second)
	ca, cb := net.Pipe()
	cfg := Config{PairCap: 1, ComputeSlots: 2}
	wa, err := NewProcWorld(3, []int{0}, []ProcLink{{Conn: ca, Ranks: []int{1, 2}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewProcWorld(3, []int{1, 2}, []ProcLink{{Conn: cb, Ranks: []int{0}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close(); wb.Close() })
	boom := errors.New("boom")
	failed, flooded := make(chan struct{}), make(chan struct{})
	_, _, ea, eb := runBoth(wa, wb, 1, false, func(c *Comm) (any, error) {
		switch c.Rank() {
		case 0:
			defer close(flooded) // also when a send fails
			<-failed
			time.Sleep(10 * time.Millisecond) // let rank 1's failure close the abort
			for i := 0; i < 2*(overflowFactor+1)*cfg.PairCap; i++ {
				c.Send(1, 9, []byte{byte(i)})
			}
			c.Recv(1, 7)
		case 1:
			close(failed)
			return nil, boom
		case 2:
			<-flooded
		}
		return nil, nil
	})
	if !errors.Is(ea, ErrAborted) || eb != boom {
		t.Fatalf("epoch errors %v / %v, want an unwinding and rank 1's (wire A: %v, B: %v)",
			ea, eb, wa.proc.downErr(), wb.proc.downErr())
	}
	_, _, ea, eb = runBoth(wa, wb, 2, false, func(c *Comm) (any, error) {
		c.Barrier()
		return nil, nil
	})
	if ea != nil || eb != nil {
		t.Fatalf("next epoch errors %v / %v", ea, eb)
	}
}
