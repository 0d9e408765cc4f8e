package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// A socket frame's length is whatever the peer wrote. Both read loops must
// refuse a length above maxFrameBytes before allocating for it — and still
// carry an ordinary 64 KiB frame.
func TestProcFrameLengthIsBounded(t *testing.T) {
	wa, wb := twoProcWorlds(t, 2, []int{0}, []int{1})
	if _, _, ea, eb := runBoth(wa, wb, 1, false, sendPayload(t, 64<<10)); ea != nil || eb != nil {
		t.Fatalf("64 KiB frame: %v / %v", ea, eb)
	}

	// B's side of the link, written by hand: a frame for rank 0 from rank 1
	// announcing 2 GiB.
	var hdr [procFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0)
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[12:], 2)
	binary.LittleEndian.PutUint32(hdr[16:], 2<<30)
	grew := allocatedWhile(func() {
		if _, err := wb.proc.links[0].conn.Write(hdr[:]); err != nil {
			t.Fatalf("forged header: %v", err)
		}
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

func TestTCPFrameLengthIsBounded(t *testing.T) {
	w, err := NewTCPWorld(2, Config{Model: ZeroCostModel(), ComputeSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(sendPayload(t, 64<<10)); err != nil {
		t.Fatalf("64 KiB frame: %v", err)
	}

	// Rank 1's end of the pair connection, written by hand.
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[8:], 2<<30)
	grew := allocatedWhile(func() {
		if _, err := w.wire.conns[1][0].Write(hdr[:]); err != nil {
			t.Fatalf("forged header: %v", err)
		}
		waitFor(t, "the read loop to fail", func() bool { return w.wire.failure() != nil })
	})
	if grew >= 1<<20 {
		t.Errorf("a forged 2 GiB length made the reader allocate %d bytes", grew)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported no transport failure after a forged length")
	}
}
