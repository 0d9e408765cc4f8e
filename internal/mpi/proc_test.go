package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// twoProcWorlds builds both endpoints of a 2-process world over an
// in-memory pipe: ranks localA live in world A, localB in world B.
func twoProcWorlds(t *testing.T, p int, localA, localB []int) (*World, *World) {
	t.Helper()
	ca, cb := net.Pipe()
	wa, err := NewProcWorld(p, localA, []ProcLink{{Conn: ca, Ranks: localB}}, Config{})
	if err != nil {
		t.Fatalf("proc world A: %v", err)
	}
	wb, err := NewProcWorld(p, localB, []ProcLink{{Conn: cb, Ranks: localA}}, Config{})
	if err != nil {
		t.Fatalf("proc world B: %v", err)
	}
	t.Cleanup(func() { wa.Close(); wb.Close() })
	return wa, wb
}

// runBoth runs the same epoch id on both endpoints concurrently, as the
// coordinator protocol does, and returns each endpoint's results and error.
func runBoth(wa, wb *World, id int, read bool, fn RankFunc) ([]any, []any, error, error) {
	var ra, rb []any
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = wa.RunEpochAt(id, read, fn) }()
	go func() { defer wg.Done(); rb, eb = wb.RunEpochAt(id, read, fn) }()
	wg.Wait()
	return ra, rb, ea, eb
}

func TestProcWorldPointToPointAndBarrier(t *testing.T) {
	wa, wb := twoProcWorlds(t, 4, []int{0, 1}, []int{2, 3})
	fn := func(c *Comm) (any, error) {
		// Ring exchange: every rank sends its id to rank+1 and receives
		// from rank-1, crossing the process boundary twice.
		p := c.Size()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(c.Rank()))
		got := c.SendRecv((c.Rank()+1)%p, 7, buf[:], (c.Rank()-1+p)%p)
		c.Barrier()
		return int(binary.LittleEndian.Uint64(got)), nil
	}
	ra, rb, ea, eb := runBoth(wa, wb, 1, false, fn)
	if ea != nil || eb != nil {
		t.Fatalf("epoch errors: %v / %v", ea, eb)
	}
	for r := 0; r < 4; r++ {
		want := (r + 3) % 4
		side := ra
		if r >= 2 {
			side = rb
		}
		if got := side[r].(int); got != want {
			t.Fatalf("rank %d got %d want %d", r, got, want)
		}
	}
	// Remote slots stay nil on each side.
	if ra[2] != nil || ra[3] != nil || rb[0] != nil || rb[1] != nil {
		t.Fatalf("remote rank slots not nil: %v %v", ra, rb)
	}
}

func TestProcWorldCollectives(t *testing.T) {
	wa, wb := twoProcWorlds(t, 4, []int{0, 2}, []int{1, 3}) // interleaved ranks
	fn := func(c *Comm) (any, error) {
		sum := c.AllreduceInt64(int64(c.Rank()+1), OpSum)
		mx := c.AllreduceInt64(int64(c.Rank()), OpMax)
		return sum*100 + mx, nil
	}
	// Two epochs back to back reuse the same sockets and namespaces.
	for id := 1; id <= 2; id++ {
		ra, rb, ea, eb := runBoth(wa, wb, id, false, fn)
		if ea != nil || eb != nil {
			t.Fatalf("epoch %d errors: %v / %v", id, ea, eb)
		}
		for r := 0; r < 4; r++ {
			side := ra
			if r%2 == 1 {
				side = rb
			}
			if got := side[r].(int64); got != 1003 {
				t.Fatalf("epoch %d rank %d got %d want 1003", id, r, got)
			}
		}
	}
}

// TestProcWorldAlltoallv: the all-to-all delivers nil, empty and non-empty
// payloads across the process boundary, as on the other transports.
func TestProcWorldAlltoallv(t *testing.T) {
	wa, wb := twoProcWorlds(t, 5, []int{0, 1, 3}, []int{2, 4})
	_, _, ea, eb := runBoth(wa, wb, 1, false, func(c *Comm) (any, error) {
		return nil, checkSparseAlltoallv(c)
	})
	if ea != nil || eb != nil {
		t.Fatalf("epoch errors: %v / %v", ea, eb)
	}
}

func TestProcWorldConcurrentReadEpochs(t *testing.T) {
	wa, wb := twoProcWorlds(t, 2, []int{0}, []int{1})
	fn := func(c *Comm) (any, error) {
		return c.AllreduceInt64(int64(c.Rank()), OpSum), nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 4; i++ {
		id := 10 + i
		wg.Add(2)
		go func(i int) { defer wg.Done(); _, errs[2*i] = wa.RunEpochAt(id, true, fn) }(i)
		go func(i int) { defer wg.Done(); _, errs[2*i+1] = wb.RunEpochAt(id, true, fn) }(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("read epoch %d: %v", i, err)
		}
	}
}

func TestProcWorldPeerLostMidEpoch(t *testing.T) {
	ca, cb := net.Pipe()
	wa, err := NewProcWorld(2, []int{0}, []ProcLink{{Conn: ca, Ranks: []int{1}}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wa.Close()
	// The "peer" never runs the epoch; it dies mid-protocol instead.
	go func() {
		time.Sleep(20 * time.Millisecond)
		cb.Close()
	}()
	_, err = wa.RunEpochAt(1, false, func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Recv(1, 3) // blocks forever unless the abort fires
		}
		return nil, nil
	})
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("want ErrPeerLost, got %v", err)
	}
	// The world is down: later epochs fail fast with the typed error.
	if _, err := wa.RunEpochAt(2, false, func(c *Comm) (any, error) { return nil, nil }); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("want fast-fail ErrPeerLost, got %v", err)
	}
}

func TestProcWorldRunRefused(t *testing.T) {
	wa, _ := twoProcWorlds(t, 2, []int{0}, []int{1})
	if _, err := wa.Run(func(c *Comm) (any, error) { return nil, nil }); err == nil {
		t.Fatal("Run must be refused on proc worlds")
	}
	if _, err := wa.RunRead(func(c *Comm) (any, error) { return nil, nil }); err == nil {
		t.Fatal("RunRead must be refused on proc worlds")
	}
}

func TestProcWorldPartitionValidation(t *testing.T) {
	ca, _ := net.Pipe()
	defer ca.Close()
	if _, err := NewProcWorld(4, []int{0, 1}, []ProcLink{{Conn: ca, Ranks: []int{2}}}, Config{}); err == nil {
		t.Fatal("unclaimed rank must be rejected")
	}
	if _, err := NewProcWorld(4, []int{0, 1}, []ProcLink{{Conn: ca, Ranks: []int{1, 2, 3}}}, Config{}); err == nil {
		t.Fatal("doubly claimed rank must be rejected")
	}
	if _, err := NewProcWorld(2, nil, []ProcLink{{Conn: ca, Ranks: []int{0, 1}}}, Config{}); err == nil {
		t.Fatal("no local ranks must be rejected")
	}
}

// An errored epoch can leave frames on the wire: rank 0 gives up at once
// while rank 1 sends to it 50 ms later. The late frame must be dropped, not
// park the reader of the link, or every later epoch on that link hangs.
func TestProcLateFrameForRetiredEpoch(t *testing.T) {
	late := func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			return nil, errors.New("rank 0 gives up")
		}
		time.Sleep(50 * time.Millisecond)
		c.Send(0, 1, []byte{1})
		return nil, nil
	}
	plain := func(c *Comm) (any, error) {
		if c.Rank() == 1 {
			c.Send(0, 2, []byte("after"))
		} else if got := string(c.Recv(1, 2)); got != "after" {
			return nil, fmt.Errorf("got %q", got)
		}
		return nil, nil
	}
	// within runs the second epoch under a watchdog that aborts the worlds
	// and fails instead of hanging.
	within := func(t *testing.T, abort func(), epoch func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- epoch() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("epoch after the late frame: %v", err)
			}
		case <-time.After(5 * time.Second):
			abort()
			<-done
			t.Fatal("epoch after the late frame hung for 5 s")
		}
	}

	t.Run("proc", func(t *testing.T) {
		wa, wb := twoProcWorlds(t, 2, []int{0}, []int{1})
		if _, _, ea, eb := runBoth(wa, wb, 1, false, late); ea == nil || eb != nil {
			t.Fatalf("epoch 1: want an error from A only, got %v / %v", ea, eb)
		}
		within(t, func() { wa.Abort("watchdog"); wb.Abort("watchdog") }, func() error {
			_, _, ea, eb := runBoth(wa, wb, 2, false, plain)
			return errors.Join(ea, eb)
		})
	})

	t.Run("loopback", func(t *testing.T) {
		w, err := NewTCPWorld(2, Config{ComputeSlots: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := w.Run(late); err == nil {
			t.Fatal("epoch 1: want rank 0's error")
		}
		within(t, func() { w.Abort("watchdog") }, func() error {
			_, err := w.Run(plain)
			return err
		})
	})
}
