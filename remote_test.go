package tc2d

// Multi-process deployment tests. The differential tests run real worker
// processes' code paths — RunWorker goroutines over real localhost TCP
// sockets, exactly what cmd/tcworker runs — against the in-process Cluster
// as oracle. The kill test re-execs the test binary as a genuine separate
// OS process and SIGKILLs it mid-write-stream.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tc2d/internal/delta"
	"tc2d/internal/snapshot"
)

// testCoordinatorOptions are fast-heartbeat settings for tests.
func testCoordinatorOptions(t *testing.T, launch func(addr string)) CoordinatorOptions {
	return CoordinatorOptions{
		WorkerWait:        30 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		OnListen:          launch,
		Logf:              t.Logf,
	}
}

// newTestCluster builds a cluster over g: in-process, or — with spans — a
// coordinator whose ranks live in one in-process worker per entry, every
// rank message on a TCP socket.
func newTestCluster(t *testing.T, g *Graph, opt Options, spans []int) (*Cluster, error) {
	t.Helper()
	if spans == nil {
		return NewCluster(g, opt)
	}
	return NewClusterCoordinator(g, opt,
		testCoordinatorOptions(t, func(addr string) { launchWorkers(t, addr, spans) }))
}

// launchWorkers starts one RunWorker goroutine per span entry against addr
// and returns per-worker cancel functions and exit channels.
func launchWorkers(t *testing.T, addr string, spans []int) ([]context.CancelFunc, []chan error) {
	t.Helper()
	return launchWorkersSlots(t, addr, spans, 4)
}

// launchWorkersSlots is launchWorkers with each worker's compute slots
// chosen by the caller.
func launchWorkersSlots(t *testing.T, addr string, spans []int, slots int) ([]context.CancelFunc, []chan error) {
	t.Helper()
	cancels := make([]context.CancelFunc, len(spans))
	exits := make([]chan error, len(spans))
	for i, span := range spans {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		exits[i] = make(chan error, 1)
		go func(i, span int) {
			exits[i] <- RunWorker(ctx, WorkerOptions{
				Coordinator:  addr,
				Ranks:        span,
				ComputeSlots: slots,
				Logf:         t.Logf,
			})
		}(i, span)
		t.Cleanup(cancel)
	}
	return cancels, exits
}

// deadlockWatchdog aborts the test binary with every goroutine's stack if
// the test is still running after d. It guards the one-slot runs: a rank
// body that blocks on another rank outside internal/mpi does so holding the
// only compute slot, and would otherwise hang until the go test timeout.
func deadlockWatchdog(t *testing.T, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 4<<20)
		panic(fmt.Sprintf("%s still running after %v:\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	})
	t.Cleanup(func() { timer.Stop() })
}

// TestCoordinatorMatchesInProcess is the differential oracle test: the same
// graph and the same update stream through a coordinator + worker-process
// cluster and through an in-process cluster must produce identical counts,
// update results and metadata — on both the Cannon and SUMMA schedules, and
// with one compute slot per process as with four.
func TestCoordinatorMatchesInProcess(t *testing.T) {
	cases := []struct {
		name  string
		ranks int
		spans []int
		slots int
	}{
		{"cannon4_2workers", 4, []int{2, 2}, 4},
		{"summa3_2workers", 3, []int{2, 1}, 4},
		{"cannon4_2workers_1slot", 4, []int{2, 2}, 1},
		{"summa3_2workers_1slot", 3, []int{2, 1}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deadlockWatchdog(t, 60*time.Second)
			g := testClusterGraph(t)
			opt := Options{Ranks: tc.ranks, ComputeSlots: tc.slots}
			oracle, err := NewCluster(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()

			cl, err := NewClusterCoordinator(g, opt,
				testCoordinatorOptions(t, func(addr string) { launchWorkersSlots(t, addr, tc.spans, tc.slots) }))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			if w := cl.Workers(); w != len(tc.spans) {
				t.Fatalf("Workers()=%d, want %d", w, len(tc.spans))
			}
			if cl.CoordinatorAddr() == "" {
				t.Fatal("CoordinatorAddr is empty")
			}

			wantRes, err := oracle.Count(QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := cl.Count(QueryOptions{})
			if err != nil {
				t.Fatalf("coordinator Count: %v", err)
			}
			if gotRes.Triangles != wantRes.Triangles || gotRes.N != wantRes.N || gotRes.M != wantRes.M {
				t.Fatalf("coordinator count (tri=%d N=%d M=%d) != in-process (tri=%d N=%d M=%d)",
					gotRes.Triangles, gotRes.N, gotRes.M, wantRes.Triangles, wantRes.N, wantRes.M)
			}

			// The same update batches, in the same order, through both.
			batches := [][]EdgeUpdate{
				{{U: 0, V: 501, Op: UpdateInsert}, {U: 2, V: 777, Op: UpdateInsert}, {U: 1, V: 2, Op: UpdateInsert}},
				{{U: 0, V: 501, Op: UpdateDelete}, {U: 3, V: 9, Op: UpdateInsert}},
				{{U: 1200, V: 1300, Op: UpdateInsert}, {U: 1300, V: 1400, Op: UpdateInsert}, {U: 1200, V: 1400, Op: UpdateInsert}},
			}
			for bi, batch := range batches {
				wantUp, err := oracle.ApplyUpdates(batch)
				if err != nil {
					t.Fatalf("oracle batch %d: %v", bi, err)
				}
				gotUp, err := cl.ApplyUpdates(batch)
				if err != nil {
					t.Fatalf("coordinator batch %d: %v", bi, err)
				}
				if gotUp.Inserted != wantUp.Inserted || gotUp.Deleted != wantUp.Deleted ||
					gotUp.DeltaTriangles != wantUp.DeltaTriangles || gotUp.Triangles != wantUp.Triangles {
					t.Fatalf("batch %d: coordinator %+v != in-process %+v", bi, gotUp, wantUp)
				}
			}

			wi, gi := oracle.Info(), cl.Info()
			if gi.N != wi.N || gi.M != wi.M || gi.Wedges != wi.Wedges {
				t.Fatalf("Info mismatch: coordinator N=%d M=%d W=%d, in-process N=%d M=%d W=%d",
					gi.N, gi.M, gi.Wedges, wi.N, wi.M, wi.Wedges)
			}
			wantTrans, err := oracle.Transitivity()
			if err != nil {
				t.Fatal(err)
			}
			gotTrans, err := cl.Transitivity()
			if err != nil {
				t.Fatal(err)
			}
			if gotTrans != wantTrans {
				t.Fatalf("Transitivity: coordinator %v, in-process %v", gotTrans, wantTrans)
			}
		})
	}
}

// TestCoordinatorDegradedWithoutPersistence: losing a worker on a
// non-durable coordinator degrades it permanently — operations fail fast
// with ErrDegraded even after a replacement joins (there is no durable
// state to restore the workers from).
func TestCoordinatorDegradedWithoutPersistence(t *testing.T) {
	g := testClusterGraph(t)
	var addr string
	var cancels []context.CancelFunc
	cl, err := NewClusterCoordinator(g, Options{Ranks: 2},
		testCoordinatorOptions(t, func(a string) {
			addr = a
			cancels, _ = launchWorkers(t, a, []int{1, 1})
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Count(QueryOptions{}); err != nil {
		t.Fatal(err)
	}

	cancels[0]() // graceful leave still frees the rank -> world degraded
	waitDegraded(t, cl, true)
	if _, err := cl.Count(QueryOptions{}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Count on degraded cluster: err=%v, want ErrDegraded", err)
	}
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ApplyUpdates on degraded cluster: err=%v, want ErrDegraded", err)
	}

	launchWorkers(t, addr, []int{1})
	// The world reassembles, but with no PersistDir recovery is impossible.
	time.Sleep(300 * time.Millisecond)
	if !cl.Degraded() {
		t.Fatal("non-durable cluster left the degraded state after rejoin")
	}
	if _, err := cl.Count(QueryOptions{}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Count after rejoin without durability: err=%v, want ErrDegraded", err)
	}
}

func waitDegraded(t *testing.T, cl *Cluster, want bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cl.Degraded() == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("Degraded()=%v never reached", want)
}

// TestCoordinatorWorkerLossAndRecovery: a durable coordinator loses a
// worker, degrades, and — once a replacement joins — recovers from the
// snapshot chain and WAL tail to exactly the acknowledged state, verified
// against an in-process oracle fed the same acknowledged batches.
func TestCoordinatorWorkerLossAndRecovery(t *testing.T) {
	g := testClusterGraph(t)
	dir := t.TempDir()
	var addr string
	var cancels []context.CancelFunc
	cl, err := NewClusterCoordinator(g, Options{Ranks: 4, PersistDir: dir},
		testCoordinatorOptions(t, func(a string) {
			addr = a
			cancels, _ = launchWorkers(t, a, []int{2, 2})
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	oracle, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// Committed, acknowledged work before the loss — some of it snapshotted
	// (the initial base), some only in the WAL tail.
	acked := [][]EdgeUpdate{
		{{U: 5, V: 900, Op: UpdateInsert}, {U: 5, V: 901, Op: UpdateInsert}, {U: 900, V: 901, Op: UpdateInsert}},
		{{U: 7, V: 8, Op: UpdateInsert}, {U: 5, V: 900, Op: UpdateDelete}},
	}
	for _, b := range acked {
		if _, err := cl.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	want, err := oracle.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cancels[1]()
	waitDegraded(t, cl, true)
	if _, err := cl.Count(QueryOptions{}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Count while degraded: err=%v, want ErrDegraded", err)
	}

	// Replacement claims the freed span; recovery replays chain + WAL tail
	// to ALL workers and clears the degraded state.
	launchWorkers(t, addr, []int{2})
	waitDegraded(t, cl, false)

	got, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatalf("Count after recovery: %v", err)
	}
	if got.Triangles != want.Triangles || got.N != want.N || got.M != want.M {
		t.Fatalf("recovered count (tri=%d N=%d M=%d) != oracle (tri=%d N=%d M=%d)",
			got.Triangles, got.N, got.M, want.Triangles, want.N, want.M)
	}

	// The recovered cluster keeps serving writes correctly.
	post := []EdgeUpdate{{U: 2000, V: 2001, Op: UpdateInsert}}
	gotUp, err := cl.ApplyUpdates(post)
	if err != nil {
		t.Fatalf("ApplyUpdates after recovery: %v", err)
	}
	wantUp, err := oracle.ApplyUpdates(post)
	if err != nil {
		t.Fatal(err)
	}
	if gotUp.Triangles != wantUp.Triangles || gotUp.Inserted != wantUp.Inserted {
		t.Fatalf("post-recovery update: coordinator %+v != oracle %+v", gotUp, wantUp)
	}
	if inf := cl.Info(); inf.Workers != 2 || inf.Degraded {
		t.Fatalf("Info after recovery: Workers=%d Degraded=%v, want 2/false", inf.Workers, inf.Degraded)
	}
}

// TestHelperWorkerProcess is not a test: it is the body of the worker
// process the kill test re-execs. It blocks in RunWorker until killed.
func TestHelperWorkerProcess(t *testing.T) {
	coord := os.Getenv("TC2D_TEST_WORKER_COORD")
	if coord == "" {
		t.Skip("helper process body; run via TestCoordinatorSurvivesWorkerKill")
	}
	RunWorker(context.Background(), WorkerOptions{
		Coordinator:  coord,
		Ranks:        2,
		ComputeSlots: 2,
	})
}

// TestCoordinatorSurvivesWorkerKill kill -9s a REAL worker OS process under
// a continuous write stream: some in-flight call fails with the typed
// worker-loss error, nothing acknowledged is lost, and after a replacement
// joins the cluster recovers to exactly the acknowledged state.
func TestCoordinatorSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	g := testClusterGraph(t)
	dir := t.TempDir()

	addrCh := make(chan string, 1)
	var helper *exec.Cmd
	var helperErr error
	launch := func(addr string) {
		addrCh <- addr
		// Two in-process ranks plus two ranks in a separate OS process.
		launchWorkers(t, addr, []int{2})
		helper = exec.Command(os.Args[0], "-test.run", "^TestHelperWorkerProcess$")
		helper.Env = append(os.Environ(), "TC2D_TEST_WORKER_COORD="+addr)
		helper.Stdout, helper.Stderr = os.Stderr, os.Stderr
		helperErr = helper.Start()
	}
	cl, err := NewClusterCoordinator(g, Options{Ranks: 4, PersistDir: dir},
		testCoordinatorOptions(t, launch))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if helperErr != nil {
		t.Fatalf("starting worker process: %v", helperErr)
	}
	defer func() {
		if helper.Process != nil {
			helper.Process.Kill()
			helper.Wait()
		}
	}()
	addr := <-addrCh

	oracle, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// A continuous write stream: batches are acknowledged one at a time, and
	// every acknowledged batch is recorded — the oracle replays exactly
	// those after the kill.
	var mu sync.Mutex
	var ackedBatches [][]EdgeUpdate
	var streamErr error
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for i := 0; ; i++ {
			u := int32(3000 + 2*i)
			batch := []EdgeUpdate{{U: u, V: u + 1, Op: UpdateInsert}, {U: 0, V: u, Op: UpdateInsert}}
			if _, err := cl.ApplyUpdates(batch); err != nil {
				mu.Lock()
				streamErr = err
				mu.Unlock()
				return
			}
			mu.Lock()
			ackedBatches = append(ackedBatches, batch)
			mu.Unlock()
		}
	}()

	// Let the stream commit some batches, then SIGKILL the worker process
	// mid-stream (with batches continuously in flight, the kill lands
	// mid-epoch or between an epoch and its ack — both must be safe).
	waitAcked := func(n int) {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			cnt := len(ackedBatches)
			mu.Unlock()
			if cnt >= n {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("write stream stalled")
	}
	waitAcked(5)
	if err := helper.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	helper.Wait()

	<-streamDone
	mu.Lock()
	failErr := streamErr
	batches := ackedBatches
	mu.Unlock()
	if !errors.Is(failErr, ErrWorkerLost) && !errors.Is(failErr, ErrDegraded) {
		t.Fatalf("in-flight write after kill -9 failed with %v, want ErrWorkerLost or ErrDegraded", failErr)
	}
	waitDegraded(t, cl, true)

	// Replacement worker process (in-process goroutine this time); recovery
	// must reproduce exactly the acknowledged prefix of the stream.
	launchWorkers(t, addr, []int{2})
	waitDegraded(t, cl, false)

	for _, b := range batches {
		if _, err := oracle.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	want, err := oracle.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatalf("Count after kill -9 recovery: %v", err)
	}
	if got.Triangles != want.Triangles || got.N != want.N || got.M != want.M {
		t.Fatalf("state after kill -9 recovery (tri=%d N=%d M=%d) != acknowledged oracle state (tri=%d N=%d M=%d)",
			got.Triangles, got.N, got.M, want.Triangles, want.N, want.M)
	}
}

// TestOpenClusterCoordinator: state persisted by an in-process cluster is
// restored onto worker processes, counters intact, and keeps serving.
func TestOpenClusterCoordinator(t *testing.T) {
	g := testClusterGraph(t)
	dir := t.TempDir()
	src, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ApplyUpdates([]EdgeUpdate{{U: 11, V: 407, Op: UpdateInsert}, {U: 12, V: 13, Op: UpdateInsert}}); err != nil {
		t.Fatal(err)
	}
	want, err := src.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantInfo := src.Info()
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	cl, err := OpenClusterCoordinator(dir, Options{},
		testCoordinatorOptions(t, func(addr string) { launchWorkers(t, addr, []int{2, 2}) }))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.Triangles || got.N != want.N || got.M != want.M {
		t.Fatalf("restored coordinator count (tri=%d N=%d M=%d) != pre-restart (tri=%d N=%d M=%d)",
			got.Triangles, got.N, got.M, want.Triangles, want.N, want.M)
	}
	if gi := cl.Info(); gi.M != wantInfo.M || gi.N != wantInfo.N {
		t.Fatalf("restored Info N=%d M=%d, want N=%d M=%d", gi.N, gi.M, wantInfo.N, wantInfo.M)
	}
	// Restored coordinators accept writes and stay durable.
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 20, V: 21, Op: UpdateInsert}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// comparable strips what legitimately differs between two runs of one op —
// the measured kernel time — from a reply, leaving every payload the op
// contract fixes: counts, per-entry results, rebuild stats, blob bytes,
// metadata.
func comparableReply(rep *opReply) *opReply {
	if rep == nil {
		return nil
	}
	cp := *rep
	if rep.Count != nil {
		c := *rep.Count
		c.LocalKernelTime = 0
		cp.Count = &c
	}
	return &cp
}

// TestOpTableEnginesAgree is the test behind "one body per op": it walks the
// op table and drives every entry through the in-process engine and through
// a coordinator with real RunWorker rank hosts, on the same graph and update
// stream, and requires equal replies from every rank — counts, delta results,
// rebuild stats, snapshot blob bytes, metadata. An op added to the table
// without a step here fails the coverage check at the end.
func TestOpTableEnginesAgree(t *testing.T) {
	for _, slots := range []int{4, 1} {
		t.Run(fmt.Sprintf("slots%d", slots), func(t *testing.T) {
			deadlockWatchdog(t, 60*time.Second)
			opTableEnginesAgree(t, slots)
		})
	}
}

func opTableEnginesAgree(t *testing.T, slots int) {
	const ranks = 4
	g := testClusterGraph(t)
	opt := Options{Ranks: ranks, ComputeSlots: slots}
	newSide := func(newEngine func(*resolvedOptions, int) (engine, error)) *Cluster {
		res, err := opt.resolve()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := newEngine(res, ranks)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.close() })
		return newClusterOn(eng, res, ranks)
	}
	local := newSide((*resolvedOptions).newLocalEngine)
	var stopWorkers []context.CancelFunc
	coord := newSide(testCoordinatorOptions(t, func(addr string) {
		stopWorkers, _ = launchWorkersSlots(t, addr, []int{2, 2}, slots)
	}).newEngine)

	// blobs[side][kind][rank]: the snapshot blobs each side encoded, restored
	// into that same side further down.
	type side struct {
		cl    *Cluster
		blobs map[bool][][]byte
	}
	sides := []*side{{cl: local, blobs: map[bool][][]byte{}}, {cl: coord, blobs: map[bool][][]byte{}}}
	// chainOf is the restore fetch of the base + delta chain a side encoded,
	// with rank bad's delta swapped for garbage when bad is a rank.
	chainOf := func(s *side, bad int) func(int) ([][]byte, error) {
		return func(rank int) ([][]byte, error) {
			delta := s.blobs[true][rank]
			if rank == bad {
				delta = []byte("not a snapshot delta")
			}
			return [][]byte{s.blobs[false][rank], delta}, nil
		}
	}
	restore := func(s *side) any { return &wireRestore{Track: true, fetch: chainOf(s, -1)} }
	fixed := func(args any) func(*side) any { return func(*side) any { return args } }
	count := fixed(nil)
	steps := []struct {
		op   string
		args func(*side) any
	}{
		{opBuild, func(*side) any {
			return &wireBuild{graph: g, Track: true}
		}},
		{opCount, count},
		{opApply, fixed([]delta.Update{{U: 0, V: 501, Op: UpdateInsert}, {U: 1, V: 2, Op: UpdateInsert}, {U: 2, V: 777, Op: UpdateInsert}})},
		{opEncodeSnap, fixed(&wireSnap{})},
		{opApply, fixed([]delta.Update{{U: 0, V: 501, Op: UpdateDelete}, {U: 1200, V: 1300, Op: UpdateInsert}, {U: 1200, V: 1400, Op: UpdateInsert}, {U: 1300, V: 1400, Op: UpdateInsert}})},
		{opEncodeSnap, fixed(&wireSnap{Delta: true})},
		{opCount, count},
		{opRebuildInc, fixed(nil)},
		{opCount, count},
		{opRebuildFull, fixed(&wireBuild{Track: true})},
		{opCount, count},
		{opRestore, restore},
		{opCount, count},
	}
	covered := map[string]bool{}
	var counts []int64
	for i, step := range steps {
		covered[step.op] = true
		var replies [2][]*opReply
		for j, s := range sides {
			var err error
			if replies[j], err = s.cl.run(step.op, step.args(s)); err != nil {
				t.Fatalf("step %d %s on side %d: %v", i, step.op, j, err)
			}
			if len(replies[j]) != ranks {
				t.Fatalf("step %d %s on side %d: %d replies for %d ranks", i, step.op, j, len(replies[j]), ranks)
			}
		}
		for r := 0; r < ranks; r++ {
			a, b := comparableReply(replies[0][r]), comparableReply(replies[1][r])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d %s rank %d: in-process reply %+v != coordinator reply %+v", i, step.op, r, a, b)
			}
		}
		switch step.op {
		case opEncodeSnap:
			useDelta := step.args(nil).(*wireSnap).Delta
			for j, s := range sides {
				for r, rep := range replies[j] {
					if rep == nil || len(rep.Blob) == 0 {
						t.Fatalf("step %d encode_snap side %d rank %d: no blob", i, j, r)
					}
					s.blobs[useDelta] = append(s.blobs[useDelta], rep.Blob)
				}
			}
			if !bytes.Equal(sides[0].blobs[useDelta][ranks-1], sides[1].blobs[useDelta][ranks-1]) {
				t.Fatalf("step %d: snapshot blob bytes differ between engines", i)
			}
		case opCount:
			counts = append(counts, replies[0][0].Count.Triangles)
		}
		if m0, m1 := local.metaNow(), coord.metaNow(); m0.N != m1.N || m0.M != m1.M || m0.Wedges != m1.Wedges || m0.DegreeDirty != m1.DegreeDirty {
			t.Fatalf("step %d %s: cached metadata diverged: %+v vs %+v", i, step.op, m0, m1)
		}
	}
	for name := range ops {
		if !covered[name] {
			t.Errorf("op %q is in the table but no step of this test drives it through both engines", name)
		}
	}
	// Layout refreshes and the snapshot round trip never change the count.
	for i := 2; i < len(counts); i++ {
		if counts[i] != counts[1] {
			t.Fatalf("count %d = %d, want %d (the count after the second batch)", i, counts[i], counts[1])
		}
	}

	// Move both sides past the chain, so a restore that installed any part of
	// it would change the count.
	grow := []delta.Update{{U: 1200, V: 1500, Op: UpdateInsert}, {U: 1300, V: 1500, Op: UpdateInsert}, {U: 1400, V: 1500, Op: UpdateInsert}}
	var served int64
	for j, s := range sides {
		if _, err := s.cl.run(opApply, grow); err != nil {
			t.Fatalf("side %d: apply past the chain: %v", j, err)
		}
		rep, err := s.cl.run0(opCount, count(nil))
		if err != nil || rep.Count.Triangles == counts[1] {
			t.Fatalf("side %d: count past the chain: %v, err=%v, want other than %d", j, rep, err, counts[1])
		}
		served = rep.Count.Triangles
	}

	// A chain that does not decode is ErrSnapshotCorrupt from either engine,
	// whichever process detected it, and leaves the resident state serving.
	// Both a chain that decodes nowhere and one whose base decodes on every
	// rank but whose delta is garbage on one rank alone are refused whole.
	bad := []*snapshot.Manifest{{AppliedSeq: 9, Ranks: ranks}}
	garbage := func(int) ([][]byte, error) { return [][]byte{[]byte("not a snapshot blob")}, nil }
	badDelta := []*snapshot.Manifest{
		{AppliedSeq: 9, Ranks: ranks, Kind: snapshot.KindBase},
		{AppliedSeq: 10, Ranks: ranks, Kind: snapshot.KindDelta, ParentSeq: 9, ChainLen: 1},
	}
	for j, s := range sides {
		for _, tc := range []struct {
			name  string
			chain []*snapshot.Manifest
			fetch func(int) ([][]byte, error)
		}{
			{"garbage chain", bad, garbage},
			{"chain with one garbage delta", badDelta, chainOf(s, ranks-1)},
		} {
			if err := s.cl.restoreChain(tc.chain, tc.fetch, true); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("side %d: restoring a %s: err=%v, want ErrSnapshotCorrupt", j, tc.name, err)
			}
			rep, err := s.cl.run0(opCount, count(nil))
			if err != nil || rep.Count.Triangles != served {
				t.Fatalf("side %d: count after restoring a %s: %v, err=%v, want %d", j, tc.name, rep, err, served)
			}
		}
	}
	// A world that lost a worker is not a data problem: the same restore then
	// fails with the membership error, so no caller walks on to older
	// snapshots (or deletes this one) because of it.
	stopWorkers[1]()
	waitDegraded(t, coord, true)
	err := coord.restoreChain(bad, garbage, true)
	if errors.Is(err, ErrSnapshotCorrupt) || !(errors.Is(err, ErrDegraded) || errors.Is(err, ErrWorkerLost)) {
		t.Fatalf("restore on a degraded world: err=%v, want ErrDegraded or ErrWorkerLost and not ErrSnapshotCorrupt", err)
	}
}
