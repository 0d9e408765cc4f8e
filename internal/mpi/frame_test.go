package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
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
	w, err := NewTCPWorld(2, Config{Model: ZeroCostModel(), ComputeSlots: 2})
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
