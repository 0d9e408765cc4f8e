package pworld

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tc2d/internal/mpi"
)

// sumDispatch is the test op set: "sum" allreduces rank+offset across the
// world and returns it; "echo" returns the rank-addressed payload.
func sumDispatch(c *mpi.Comm, op string, common, mine []byte) ([]byte, error) {
	switch op {
	case "sum":
		off := int64(0)
		if len(common) == 8 {
			off = int64(binary.LittleEndian.Uint64(common))
		}
		total := c.AllreduceInt64(int64(c.Rank())+off, mpi.OpSum)
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(total))
		return out[:], nil
	case "echo":
		return mine, nil
	}
	return nil, nil
}

func startCoordinator(t *testing.T, world int, onEvent func(Event)) *Coordinator {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(ln, Config{
		World:             world,
		Format:            1,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		OnEvent:           onEvent,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func startWorker(t *testing.T, c *Coordinator, ranks int) (context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunWorker(ctx, WorkerConfig{
			Coordinator: c.ln.Addr().String(),
			Ranks:       ranks,
			Format:      1,
			Dispatch:    sumDispatch,
			Logf:        t.Logf,
		})
	}()
	t.Cleanup(cancel)
	return cancel, errCh
}

func waitReady(t *testing.T, c *Coordinator, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Ready() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("world ready=%v never reached", want)
}

func TestCoordinatorAssemblyAndEpochs(t *testing.T) {
	c := startCoordinator(t, 4, nil)
	startWorker(t, c, 2)
	startWorker(t, c, 2)
	waitReady(t, c, true)

	// Exclusive epoch: allreduce over all 4 ranks (0+1+2+3 = 6).
	got, err := c.Run(false, "sum", nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("want 4 rank payloads, got %d", len(got))
	}
	for r, b := range got {
		if v := int64(binary.LittleEndian.Uint64(b)); v != 6 {
			t.Fatalf("rank %d sum %d, want 6", r, v)
		}
	}

	// Rank-addressed payloads come back from the right rank.
	per := map[int][]byte{0: []byte("a"), 3: []byte("b")}
	got, err = c.Run(false, "echo", nil, per)
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if string(got[0]) != "a" || string(got[3]) != "b" || got[1] != nil {
		t.Fatalf("echo payloads wrong: %v", got)
	}

	// Concurrent read epochs.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Run(true, "sum", nil, nil)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("read epoch: %v", err)
		}
	}
}

func TestWorkerLossFailsCallsAndRejoinRecovers(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	c := startCoordinator(t, 2, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	cancel1, err1 := startWorker(t, c, 1)
	startWorker(t, c, 1)
	waitReady(t, c, true)

	if _, err := c.Run(false, "sum", nil, nil); err != nil {
		t.Fatalf("healthy Run: %v", err)
	}

	// Graceful leave drops the world to not-ready.
	cancel1()
	if err := <-err1; err != nil {
		t.Fatalf("graceful leave returned %v", err)
	}
	waitReady(t, c, false)
	if _, err := c.Run(false, "sum", nil, nil); !errors.Is(err, ErrNotReady) {
		t.Fatalf("want ErrNotReady, got %v", err)
	}

	// A replacement joins, gets the freed rank, and the mesh rebuilds.
	startWorker(t, c, 1)
	waitReady(t, c, true)
	got, err := c.Run(false, "sum", nil, nil)
	if err != nil {
		t.Fatalf("post-rejoin Run: %v", err)
	}
	if v := int64(binary.LittleEndian.Uint64(got[0])); v != 1 {
		t.Fatalf("post-rejoin sum %d, want 1", v)
	}

	mu.Lock()
	defer mu.Unlock()
	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{EventJoined, EventJoined, EventReady, EventLost, EventJoined, EventReady}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
}

// TestLateDownSparesNextGeneration plays the coordinator to one worker. A
// survivor can read the "down" for the world a loss killed (generation 1)
// after the "start" of the world a replacement completed (generation 2): the
// coordinator sends "down" only after releasing its lock. The late "down"
// must leave the running generation-2 world serving epochs, and a "down"
// naming generation 2 must still abort it.
func TestLateDownSparesNextGeneration(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunWorker(ctx, WorkerConfig{
			Coordinator: ln.Addr().String(),
			Format:      1,
			Dispatch:    sumDispatch,
			Logf:        t.Logf,
		})
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	send := func(msg *wireMsg) {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(kind string) wireMsg {
		var msg wireMsg
		if err := dec.Decode(&msg); err != nil {
			t.Fatalf("waiting for %q: %v", kind, err)
		}
		if msg.Kind != kind {
			t.Fatalf("worker sent %q, want %q", msg.Kind, kind)
		}
		return msg
	}
	join := recv("join")
	send(&wireMsg{Kind: "welcome", WorkerID: 1, World: 1})
	for gen := 1; gen <= 2; gen++ {
		send(&wireMsg{Kind: "start", Gen: gen, Peers: []PeerInfo{{ID: 1, Addr: join.MeshAddr, Ranks: []int{0}}}})
		if got := recv("started").Gen; got != gen {
			t.Fatalf("worker acked generation %d, want %d", got, gen)
		}
	}

	// The worker reads its control messages in order, so the "down" is
	// handled before the epoch arrives.
	send(&wireMsg{Kind: "down", Gen: 1, Reason: "worker 2 lost"})
	send(&wireMsg{Kind: "epoch", Epoch: 1, Op: "sum"})
	if done := recv("epochDone"); done.Err != "" || len(done.PerRank[0]) != 8 {
		t.Fatalf("epoch on generation 2 after a down for generation 1: err %q, payloads %v", done.Err, done.PerRank)
	}
	send(&wireMsg{Kind: "down", Gen: 2, Reason: "worker 3 lost"})
	send(&wireMsg{Kind: "epoch", Epoch: 2, Op: "sum"})
	if done := recv("epochDone"); !done.PeerLost {
		t.Fatalf("epoch on generation 2 after a down for generation 2: err %q, PeerLost %v", done.Err, done.PeerLost)
	}
	send(&wireMsg{Kind: "shutdown"})
	if err := <-errCh; err != nil {
		t.Fatalf("worker returned %v after shutdown", err)
	}
}

// TestHeartbeatEviction joins a raw fake worker that answers the handshake
// but ignores pings; the coordinator must evict it.
func TestHeartbeatEviction(t *testing.T) {
	lost := make(chan Event, 1)
	c := startCoordinator(t, 1, func(ev Event) {
		if ev.Kind == EventLost {
			select {
			case lost <- ev:
			default:
			}
		}
	})
	conn, err := net.Dial("tcp", c.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&wireMsg{Kind: "join", WantRanks: 1, Format: 1, MeshAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	var welcome wireMsg
	if err := dec.Decode(&welcome); err != nil || welcome.Reject != "" {
		t.Fatalf("welcome: %v %q", err, welcome.Reject)
	}
	select {
	case ev := <-lost:
		if ev.WorkerID != welcome.WorkerID {
			t.Fatalf("lost worker %d, want %d", ev.WorkerID, welcome.WorkerID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("silent worker never evicted")
	}
	_, _, timeouts := c.Stats()
	if timeouts != 1 {
		t.Fatalf("timeout evictions = %d, want 1", timeouts)
	}
}

func TestJoinRejections(t *testing.T) {
	c := startCoordinator(t, 2, nil)
	dialJoin := func(want int, format int) string {
		conn, err := net.Dial("tcp", c.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		if err := enc.Encode(&wireMsg{Kind: "join", WantRanks: want, Format: format, MeshAddr: "x"}); err != nil {
			t.Fatal(err)
		}
		var w wireMsg
		if err := dec.Decode(&w); err != nil {
			t.Fatal(err)
		}
		return w.Reject
	}
	if r := dialJoin(1, 99); r == "" {
		t.Fatal("format mismatch not rejected")
	}
	if r := dialJoin(3, 1); r == "" {
		t.Fatal("oversized rank request not rejected")
	}
	startWorker(t, c, 2)
	waitReady(t, c, true)
	if r := dialJoin(1, 1); r == "" {
		t.Fatal("join into full world not rejected")
	}
}

// TestConcurrentJoinsStartOneBuild releases all of a world's workers from a
// barrier, so their join handshakes complete together, and checks that the
// assembly started exactly one mesh generation, built once by every worker,
// and that the world it built runs an epoch: two last joiners must not each
// start a generation, and one joiner's start must not reach another before
// that one's welcome.
func TestConcurrentJoinsStartOneBuild(t *testing.T) {
	const workers = 4
	for round := 0; round < 200; round++ {
		c := startCoordinator(t, workers, nil)
		var builds atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		release := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release
				RunWorker(ctx, WorkerConfig{
					Coordinator: c.ln.Addr().String(),
					Format:      1,
					Dispatch:    sumDispatch,
					OnReady:     func([]int) { builds.Add(1) },
				})
			}()
		}
		close(release)
		waitReady(t, c, true)
		got, err := c.Run(false, "sum", nil, nil)
		if err != nil {
			t.Fatalf("round %d: first epoch on the assembled world: %v", round, err)
		}
		if v := int64(binary.LittleEndian.Uint64(got[0])); v != 0+1+2+3 {
			t.Fatalf("round %d: sum %d, want 6", round, v)
		}
		c.mu.Lock()
		gen := c.gen
		c.mu.Unlock()
		if gen != 1 || builds.Load() != workers {
			t.Fatalf("round %d: %d mesh generations started and %d worker builds for one assembly of %d workers, want 1 and %d",
				round, gen, builds.Load(), workers, workers)
		}
		cancel()
		wg.Wait()
		c.Close()
	}
}

// TestFailedRankErrorWinsOverUnwinding: a rank that fails in one worker
// aborts its epoch in the other worker too, and Run reports the failed
// rank's error, not the other worker's unwinding — even though the unwinding
// worker reports first: rank 2 holds its worker's report back. The world
// then runs its next epoch normally.
func TestFailedRankErrorWinsOverUnwinding(t *testing.T) {
	c := startCoordinator(t, 4, nil)
	dispatch := func(cm *mpi.Comm, op string, _, _ []byte) ([]byte, error) {
		if op != "fail" {
			return nil, nil
		}
		switch cm.Rank() {
		case 3:
			time.Sleep(20 * time.Millisecond) // let the peers block first
			return nil, errors.New("rank 3 gives up")
		case 2:
			time.Sleep(300 * time.Millisecond)
		default:
			cm.Recv(3, 7) // ranks 0 and 1 live in the other worker
		}
		return nil, nil
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go RunWorker(ctx, WorkerConfig{
			Coordinator: c.ln.Addr().String(),
			Ranks:       2,
			Format:      1,
			MPI:         mpi.Config{ComputeSlots: 2},
			Dispatch:    dispatch,
			Logf:        t.Logf,
		})
	}
	waitReady(t, c, true)
	if _, err := c.Run(false, "fail", nil, nil); err == nil || !strings.Contains(err.Error(), "rank 3 gives up") {
		t.Fatalf("Run error %v, want rank 3's", err)
	}
	if _, err := c.Run(false, "ok", nil, nil); err != nil {
		t.Fatalf("next epoch: %v", err)
	}
}
