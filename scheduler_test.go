package tc2d

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Scheduler tests: concurrent read epochs, coalesced write batches, FIFO
// conflict deferral, and Close racing in-flight work.

// plannedWriter owns a disjoint slice of the edge universe (pairs whose
// endpoint sum falls in its residue class) and pre-plans a sequence of
// batches against a private oracle, so concurrent writers can never
// conflict and the final graph is order-independent — also when the
// universe reaches past the graph's vertices, because an edge to a new id
// admits it whichever writer's batch lands first.
type plannedWriter struct {
	batches [][]EdgeUpdate
	// expected per-batch effective counts, for demux verification
	wantIns, wantDel []int
}

func planWriters(t *testing.T, g *Graph, writers, batchesPer, sizePer int, grow int32, seed int64) []*plannedWriter {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := int(g.N + grow)
	// Each writer's pool: pairs (u, v), u < v, with (u+v) % writers == id.
	pool := make([]map[[2]int32]bool, writers)
	for w := range pool {
		pool[w] = map[[2]int32]bool{}
	}
	for v := int32(0); v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				pool[int(u+v)%writers][[2]int32{v, u}] = true
			}
		}
	}
	out := make([]*plannedWriter, writers)
	for w := 0; w < writers; w++ {
		pw := &plannedWriter{}
		present := pool[w]
		var existing [][2]int32
		for e := range present {
			existing = append(existing, e)
		}
		for b := 0; b < batchesPer; b++ {
			var batch []EdgeUpdate
			ins, del := 0, 0
			touched := map[[2]int32]bool{}
			for len(batch) < sizePer {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				if int(u+v)%writers != w {
					continue
				}
				k := [2]int32{u, v}
				if touched[k] {
					continue
				}
				touched[k] = true
				if present[k] && rng.Intn(2) == 0 {
					batch = append(batch, EdgeUpdate{U: u, V: v, Op: UpdateDelete})
					delete(present, k)
					del++
				} else if !present[k] {
					batch = append(batch, EdgeUpdate{U: u, V: v, Op: UpdateInsert})
					present[k] = true
					ins++
				}
			}
			pw.batches = append(pw.batches, batch)
			pw.wantIns = append(pw.wantIns, ins)
			pw.wantDel = append(pw.wantDel, del)
		}
		out[w] = pw
	}
	return out
}

// finalGraph applies every writer's planned batches to g.
func finalGraph(t *testing.T, g *Graph, plans []*plannedWriter) *Graph {
	t.Helper()
	o := newEdgeOracle(g)
	for _, pw := range plans {
		for _, b := range pw.batches {
			o.apply(b)
		}
	}
	return o.graph(t)
}

// runConcurrentDifferential races R readers against W planned writers, whose
// edges may name up to grow ids past the graph's, and checks (a) per-caller
// demultiplexed results against each writer's own plan, (b) the final
// maintained state against the sequential oracle. spans places the ranks
// (see newTestCluster). It returns the cluster, closed when the test ends.
func runConcurrentDifferential(t *testing.T, opt Options, spans []int, scale, writers, batchesPer int, grow int32, seed int64) *Cluster {
	t.Helper()
	g, err := GenerateRMAT(G500, scale, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	plans := planWriters(t, g, writers, batchesPer, 24, grow, seed)
	want := CountSequential(finalGraph(t, g, plans))

	cl, err := newTestCluster(t, g, opt, spans)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	var wg sync.WaitGroup
	errCh := make(chan error, writers+4)
	for w, pw := range plans {
		wg.Add(1)
		go func(w int, pw *plannedWriter) {
			defer wg.Done()
			for b, batch := range pw.batches {
				res, err := cl.ApplyUpdates(batch)
				if err != nil {
					errCh <- err
					return
				}
				// Writers own disjoint edge pools, so each caller's
				// demultiplexed effective counts must match its own plan no
				// matter what was coalesced alongside.
				if res.Inserted != pw.wantIns[b] || res.Deleted != pw.wantDel[b] {
					t.Errorf("writer %d batch %d: demuxed +%d -%d, plan +%d -%d (coalesced %d)",
						w, b, res.Inserted, res.Deleted, pw.wantIns[b], pw.wantDel[b], res.Coalesced)
				}
				if res.SkippedExisting != 0 || res.SkippedMissing != 0 || res.SkippedLoops != 0 {
					t.Errorf("writer %d batch %d: unexpected skips %d/%d/%d",
						w, b, res.SkippedExisting, res.SkippedMissing, res.SkippedLoops)
				}
				if res.Coalesced < 1 {
					t.Errorf("writer %d batch %d: Coalesced=%d", w, b, res.Coalesced)
				}
			}
		}(w, pw)
	}
	var stop atomic.Bool
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := cl.Count(QueryOptions{}); err != nil {
					errCh <- err
					return
				}
				if _, err := cl.Transitivity(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Stop readers once all writers have finished their planned batches.
	for {
		if cl.Info().Updates == int64(writers*batchesPer) {
			stop.Store(true)
			break
		}
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	<-done
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	res, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Fatalf("final concurrent-stream count %d, sequential oracle %d", res.Triangles, want)
	}
	gm := finalGraph(t, g, plans)
	info := cl.Info()
	if info.M != gm.NumEdges() || info.Wedges != wedgesOf(gm) {
		t.Errorf("Info M=%d Wedges=%d, oracle M=%d Wedges=%d", info.M, info.Wedges, gm.NumEdges(), wedgesOf(gm))
	}
	if tr, err := cl.Transitivity(); err != nil {
		t.Fatal(err)
	} else if want := Transitivity(gm); math.Abs(tr-want) > 1e-12 {
		t.Errorf("transitivity %v, oracle %v", tr, want)
	}
	if info.Updates != int64(writers*batchesPer) {
		t.Errorf("Updates=%d, want %d", info.Updates, writers*batchesPer)
	}
	if info.WriteEpochs > info.CoalescedBatches {
		t.Errorf("WriteEpochs=%d > CoalescedBatches=%d", info.WriteEpochs, info.CoalescedBatches)
	}
	return cl
}

func TestSchedulerDifferentialCannon(t *testing.T) {
	// 3 writers × 11 batches = 33 randomized batches of 24 updates on a
	// graph small enough that they cross rebuildFraction of M, so
	// staleness rebuilds interleave with concurrent readers.
	cl := runConcurrentDifferential(t, Options{Ranks: 4}, nil, 8, 3, 11, 0, 1)
	if info := cl.Info(); info.Rebuilds == 0 {
		t.Errorf("no staleness rebuild ran (M=%d)", info.M)
	}
}

func TestSchedulerDifferentialSUMMA(t *testing.T) {
	runConcurrentDifferential(t, Options{Ranks: 6}, nil, 10, 3, 11, 0, 2)
}

// TestSchedulerDifferentialTCP runs readers beside writers with every rank
// message on a socket: the ranks live in two workers behind a coordinator.
func TestSchedulerDifferentialTCP(t *testing.T) {
	runConcurrentDifferential(t, Options{Ranks: 4}, []int{2, 2}, 9, 3, 10, 0, 3)
}

func TestSchedulerDifferentialSUMMATCP(t *testing.T) {
	runConcurrentDifferential(t, Options{Ranks: 6}, []int{3, 3}, 9, 3, 10, 0, 4)
}

// TestSchedulerDifferentialGrowth: other ranks read a rank's resident arrays
// in place during a count, so the writes between reads must leave them whole
// however they move. The writers' edges reach 64 ids past the graph, so
// GrowTo slides adj inside the blob arrays, and their inserts outgrow blocks
// so that splices reallocate them, while readers wait at the gate.
func TestSchedulerDifferentialGrowth(t *testing.T) {
	cl := runConcurrentDifferential(t, Options{Ranks: 4}, nil, 10, 3, 11, 64, 5)
	if info := cl.Info(); info.OverflowN == 0 {
		t.Errorf("the vertex space never grew (N=%d)", info.N)
	}
	if n := cl.Metrics().Snapshot()["tc_splice_reallocs_total"]; n == 0 {
		t.Error("no splice reallocated a block")
	}
}

// TestSchedulerCoalescesQueuedBatches pins the write queue behind the
// exclusive gate, enqueues five batches, and releases: all five must ride
// ONE write epoch with per-caller results demultiplexed.
func TestSchedulerCoalescesQueuedBatches(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 101)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Count(QueryOptions{}); err != nil {
		t.Fatal(err) // establish the base count outside the drain
	}
	before := cl.Info()

	// Five disjoint fresh edges on high vertex ids (RMAT leaves them
	// sparse); none exist, so each inserts exactly one edge.
	cl.sched.gate.Lock()
	const callers = 5
	results := make([]*UpdateResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := g.N - int32(2*i) - 1
			v := g.N - int32(2*i) - 2
			results[i], errs[i] = cl.ApplyUpdates([]EdgeUpdate{{U: u, V: v, Op: UpdateInsert}})
		}(i)
	}
	for cl.sched.depth.Load() != callers {
		time.Sleep(time.Millisecond)
	}
	cl.sched.gate.Unlock()
	wg.Wait()

	after := cl.Info()
	if got := after.WriteEpochs - before.WriteEpochs; got != 1 {
		t.Errorf("queued batches ran %d write epochs, want 1", got)
	}
	if got := after.CoalescedBatches - before.CoalescedBatches; got != callers {
		t.Errorf("CoalescedBatches advanced by %d, want %d", got, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].Coalesced != callers {
			t.Errorf("caller %d: Coalesced=%d, want %d", i, results[i].Coalesced, callers)
		}
		if results[i].Inserted != 1 || results[i].Deleted != 0 {
			t.Errorf("caller %d: demuxed +%d -%d, want +1 -0", i, results[i].Inserted, results[i].Deleted)
		}
	}
	if after.M != before.M+callers {
		t.Errorf("M=%d, want %d", after.M, before.M+callers)
	}
}

// TestSchedulerDuplicateAndConflictAcrossCallers: a duplicate insert across
// two coalesced callers is effective once and a skip for the other; a
// cross-caller insert/delete conflict is never merged — the later batch
// waits for the next write epoch.
func TestSchedulerDuplicateAndConflictAcrossCallers(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 102)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Count(QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	eu, ev := g.N-1, g.N-2 // fresh edge

	// Duplicate inserts from two callers, coalesced into one epoch.
	before := cl.Info()
	cl.sched.gate.Lock()
	var wg sync.WaitGroup
	dup := make([]*UpdateResult, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.ApplyUpdates([]EdgeUpdate{{U: eu, V: ev, Op: UpdateInsert}})
			if err != nil {
				t.Error(err)
				return
			}
			dup[i] = res
		}(i)
	}
	for cl.sched.depth.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	cl.sched.gate.Unlock()
	wg.Wait()
	if dup[0] == nil || dup[1] == nil {
		t.Fatal("missing results")
	}
	if ins := dup[0].Inserted + dup[1].Inserted; ins != 1 {
		t.Errorf("duplicate insert effective %d times, want 1", ins)
	}
	if skips := dup[0].SkippedExisting + dup[1].SkippedExisting; skips != 1 {
		t.Errorf("duplicate insert skipped %d times, want 1", skips)
	}
	if got := cl.Info().WriteEpochs - before.WriteEpochs; got != 1 {
		t.Errorf("duplicate pair ran %d write epochs, want 1", got)
	}

	// Conflict: insert and delete of one edge from different callers.
	// Enqueue in a known order (deterministic via depth waits).
	cu, cv := g.N-3, g.N-4 // fresh edge
	before = cl.Info()
	cl.sched.gate.Lock()
	var insRes, delRes *UpdateResult
	var insErr, delErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		insRes, insErr = cl.ApplyUpdates([]EdgeUpdate{{U: cu, V: cv, Op: UpdateInsert}})
	}()
	for cl.sched.depth.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		delRes, delErr = cl.ApplyUpdates([]EdgeUpdate{{U: cu, V: cv, Op: UpdateDelete}})
	}()
	for cl.sched.depth.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	cl.sched.gate.Unlock()
	wg.Wait()
	if insErr != nil || delErr != nil {
		t.Fatalf("conflict pair errored: %v / %v", insErr, delErr)
	}
	if insRes.Inserted != 1 {
		t.Errorf("insert half: Inserted=%d, want 1 (FIFO order must hold)", insRes.Inserted)
	}
	if delRes.Deleted != 1 {
		t.Errorf("delete half: Deleted=%d, want 1 (must see the insert committed)", delRes.Deleted)
	}
	if got := cl.Info().WriteEpochs - before.WriteEpochs; got != 2 {
		t.Errorf("conflicting pair ran %d write epochs, want 2 (never merged)", got)
	}
}

// TestSchedulerReadFlightsShareEpochs: concurrent identical queries
// released together must not each pay a full epoch.
func TestSchedulerReadFlightsShareEpochs(t *testing.T) {
	g, err := GenerateRMAT(G500, 10, 8, 103)
	if err != nil {
		t.Fatal(err)
	}
	want := CountSequential(g)
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.sched.gate.Lock() // hold readers at the gate so they release together
	const callers = 6
	var wg sync.WaitGroup
	counts := make([]int64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.Count(QueryOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			counts[i] = res.Triangles
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let the callers reach the gate
	cl.sched.gate.Unlock()
	wg.Wait()
	for i, c := range counts {
		if c != want {
			t.Errorf("caller %d: %d triangles, want %d", i, c, want)
		}
	}
	info := cl.Info()
	if info.Queries != callers {
		t.Errorf("Queries=%d, want %d", info.Queries, callers)
	}
	if info.ReadEpochs > info.Queries {
		t.Errorf("ReadEpochs=%d exceeds Queries=%d", info.ReadEpochs, info.Queries)
	}
}

// TestClusterCloseRacesInFlightWork: Close racing concurrent queries and
// queued updates must resolve every call with a real result or ErrClosed —
// never a panic — and everything accepted before Close must commit.
func TestClusterCloseRacesInFlightWork(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 104)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := cl.Count(QueryOptions{})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("Count: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				u := int32((w*1000 + i*2) % int(g.N))
				v := int32((w*1000 + i*2 + 1) % int(g.N))
				if u == v {
					continue
				}
				_, err := cl.ApplyUpdates([]EdgeUpdate{{U: u, V: v, Op: UpdateInsert}})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("ApplyUpdates: %v", err)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if _, err := cl.Count(QueryOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Count after Close: %v, want ErrClosed", err)
	}
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}}); !errors.Is(err, ErrClosed) {
		t.Errorf("ApplyUpdates after Close: %v, want ErrClosed", err)
	}
	if _, err := cl.Transitivity(); !errors.Is(err, ErrClosed) {
		t.Errorf("Transitivity after Close: %v, want ErrClosed", err)
	}
	if err := cl.Rebuild(); !errors.Is(err, ErrClosed) {
		t.Errorf("Rebuild after Close: %v, want ErrClosed", err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestClusterCloseDrainsAcceptedWrites: updates accepted before Close
// begins must commit, not drop, even when Close arrives while they are
// still queued.
func TestClusterCloseDrainsAcceptedWrites(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 105)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Count(QueryOptions{}); err != nil {
		t.Fatal(err)
	}

	cl.sched.gate.Lock() // pin the writer so the updates stay queued
	const callers = 3
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.ApplyUpdates([]EdgeUpdate{
				{U: g.N - int32(2*i) - 1, V: g.N - int32(2*i) - 2, Op: UpdateInsert}})
		}(i)
	}
	for cl.sched.depth.Load() != callers {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- cl.Close() }()
	time.Sleep(5 * time.Millisecond)
	cl.sched.gate.Unlock()
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued update %d dropped at Close: %v", i, err)
		}
	}
}
