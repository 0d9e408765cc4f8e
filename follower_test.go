package tc2d

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tc2d/internal/snapshot"
)

// gatedHandler fronts the primary's replication handler with two switches
// the tests flip: block (503 everything — a partitioned or down primary)
// and swap (a NEW primary process behind the same address — restart).
type gatedHandler struct {
	inner   atomic.Value // http.Handler
	blocked atomic.Bool
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.blocked.Load() {
		http.Error(w, "primary unavailable", http.StatusServiceUnavailable)
		return
	}
	g.inner.Load().(http.Handler).ServeHTTP(w, r)
}

func newReplPrimary(t *testing.T, scale int, opt Options) (*Cluster, *gatedHandler, *httptest.Server, *edgeOracle) {
	t.Helper()
	g, err := GenerateRMAT(G500, scale, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	opt.PersistDir = t.TempDir()
	opt.NoWALSync = true
	cl, err := NewCluster(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rh, err := cl.ReplicationHandler()
	if err != nil {
		t.Fatal(err)
	}
	gh := &gatedHandler{}
	gh.inner.Store(rh)
	hs := httptest.NewServer(gh)
	t.Cleanup(hs.Close)
	return cl, gh, hs, newEdgeOracle(g)
}

func waitFollowerReady(t *testing.T, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.Info().State == "ready" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never became ready: %+v", f.Info())
}

// waitConverged blocks until the follower has applied everything the
// primary has committed, then returns its triangle count at that point.
func waitConverged(t *testing.T, primary *Cluster, f *Follower) int64 {
	t.Helper()
	want := primary.CommittedSeq()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.Info().AppliedSeq >= want {
			res, err := f.Count(QueryOptions{}, Unbounded)
			if err != nil {
				t.Fatalf("follower count after convergence: %v", err)
			}
			return res.Triangles
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never reached primary seq %d: %+v", want, f.Info())
	return 0
}

// The tentpole differential: a follower fed only by snapshot bootstrap plus
// the WAL stream must agree EXACTLY with the primary and the sequential
// oracle after every quiesced point — and a replacement follower opened
// mid-stream (kill-anywhere) bootstraps into the same state.
func TestFollowerConvergesDifferential(t *testing.T) {
	primary, _, hs, oracle := newReplPrimary(t, 7, Options{Ranks: 4})
	f, err := OpenFollower(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerReady(t, f)

	rng := rand.New(rand.NewSource(41))
	const batches = 24
	killAt := 8 + rng.Intn(8) // replace the follower somewhere mid-stream
	for b := 0; b < batches; b++ {
		batch := randomBatch(rng, oracle, 4+rng.Intn(6), 10+rng.Intn(10))
		if _, err := primary.ApplyUpdates(batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		oracle.apply(batch)

		if b == killAt {
			// Kill-anywhere: drop the follower mid-stream and bootstrap a
			// fresh one against whatever chain + WAL tail exists right now.
			if err := f.Close(); err != nil {
				t.Fatalf("batch %d: close follower: %v", b, err)
			}
			if f, err = OpenFollower(hs.URL, Options{}); err != nil {
				t.Fatalf("batch %d: reopen follower: %v", b, err)
			}
			defer f.Close()
			waitFollowerReady(t, f)
		}
		if b%6 == 0 || b == killAt || b == batches-1 {
			got := waitConverged(t, primary, f)
			want := CountSequential(oracle.graph(t))
			if got != want {
				t.Fatalf("batch %d: follower %d, oracle %d", b, got, want)
			}
			pres, err := primary.Count(QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got != pres.Triangles {
				t.Fatalf("batch %d: follower %d, primary %d", b, got, pres.Triangles)
			}
		}
	}

	info := f.Info()
	if info.Bootstraps != 1 || info.AppliedBatches == 0 || info.ReceivedBytes == 0 {
		t.Fatalf("follower accounting: %+v", info)
	}
	if lag := f.LagSeq(); lag != 0 {
		t.Fatalf("lag %d after convergence", lag)
	}
}

// A follower's replicated batches are write epochs on both of its surfaces:
// Info().WriteEpochs (tcd's /stats) and tc_sched_write_epochs_total
// (/metrics) read one count.
func TestFollowerWriteEpochsReachMetrics(t *testing.T) {
	primary, _, hs, _ := newReplPrimary(t, 6, Options{Ranks: 4})
	f, err := OpenFollower(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerReady(t, f)
	const batches = 5
	for b := int32(0); b < batches; b++ {
		if _, err := primary.ApplyUpdates([]EdgeUpdate{{U: 64 + b, V: 70 + b, Op: UpdateInsert}}); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	waitConverged(t, primary, f)
	if got := f.Info().AppliedBatches; got != batches {
		t.Fatalf("follower applied %d batches, want %d", got, batches)
	}
	if got := f.Cluster().Info().WriteEpochs; got != batches {
		t.Errorf("Info().WriteEpochs = %d, want %d", got, batches)
	}
	if got := f.Metrics().Snapshot()["tc_sched_write_epochs_total"]; got != batches {
		t.Errorf("tc_sched_write_epochs_total = %v, want %d", got, batches)
	}
}

// Followers reject writes locally: every mutation surface must return
// ErrFollowerReadOnly instead of forking the replica from the stream.
func TestFollowerReadOnly(t *testing.T) {
	_, _, hs, _ := newReplPrimary(t, 6, Options{Ranks: 4})
	f, err := OpenFollower(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerReady(t, f)

	cl := f.Cluster()
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}}); !errors.Is(err, ErrFollowerReadOnly) {
		t.Fatalf("ApplyUpdates: %v, want ErrFollowerReadOnly", err)
	}
	if _, err := cl.AddVertices(4); !errors.Is(err, ErrFollowerReadOnly) {
		t.Fatalf("AddVertices: %v, want ErrFollowerReadOnly", err)
	}
	if _, err := cl.Snapshot(); err == nil {
		t.Fatal("Snapshot on a follower must fail (not durable)")
	}
	// Reads still work while writes are rejected.
	if _, err := f.Count(QueryOptions{}, Unbounded); err != nil {
		t.Fatalf("read on follower: %v", err)
	}
}

// Staleness bounds: a follower cut off from its primary keeps serving
// unbounded reads but fails bounded ones once its caught-up observation
// ages past the requested wall-clock bound.
func TestFollowerStaleRead(t *testing.T) {
	primary, gh, hs, oracle := newReplPrimary(t, 6, Options{Ranks: 4})
	f, err := OpenFollower(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerReady(t, f)

	rng := rand.New(rand.NewSource(43))
	batch := randomBatch(rng, oracle, 0, 12)
	if _, err := primary.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, primary, f)

	// Caught up: every bound passes.
	if _, err := f.Count(QueryOptions{}, ReadBound{MaxLagSeq: 0}); err != nil {
		t.Fatalf("MaxLagSeq=0 while caught up: %v", err)
	}
	if _, err := f.Count(QueryOptions{}, ReadBound{MaxLag: time.Minute}); err != nil {
		t.Fatalf("MaxLag=1m while caught up: %v", err)
	}

	// Partition the primary away and let the last heartbeat age.
	gh.blocked.Store(true)
	time.Sleep(50 * time.Millisecond)
	if _, err := f.Count(QueryOptions{}, ReadBound{MaxLag: 10 * time.Millisecond}); !errors.Is(err, ErrStaleRead) {
		t.Fatalf("MaxLag=10ms while partitioned: %v, want ErrStaleRead", err)
	}
	if _, err := f.Count(QueryOptions{}, Unbounded); err != nil {
		t.Fatalf("unbounded read while partitioned: %v", err)
	}
	if _, err := f.Transitivity(ReadBound{MaxLag: 10 * time.Millisecond}); !errors.Is(err, ErrStaleRead) {
		t.Fatalf("Transitivity bound while partitioned: %v, want ErrStaleRead", err)
	}

	// Heal the partition: bounded reads recover.
	gh.blocked.Store(false)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := f.Count(QueryOptions{}, ReadBound{MaxLag: time.Minute}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bounded reads never recovered after the partition healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Compaction catch-up: when retention prunes the WAL range a partitioned
// follower still needs, its next poll gets ErrGone and it must re-bootstrap
// from the current snapshot chain — and still converge exactly.
func TestFollowerRebootstrapAfterCompaction(t *testing.T) {
	primary, gh, hs, oracle := newReplPrimary(t, 6, Options{Ranks: 4})
	f, err := OpenFollower(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerReady(t, f)
	cut := f.Info().AppliedSeq

	// Partition the follower, then churn + snapshot on the primary until
	// retention has pruned the WAL records just past the follower's cursor.
	gh.blocked.Store(true)
	rng := rand.New(rand.NewSource(47))
	dir := primary.WALDir()
	pruned := false
	for i := 0; i < 64 && !pruned; i++ {
		batch := randomBatch(rng, oracle, 6+rng.Intn(6), 12+rng.Intn(12))
		if _, err := primary.ApplyUpdates(batch); err != nil {
			t.Fatalf("churn batch %d: %v", i, err)
		}
		oracle.apply(batch)
		if _, err := primary.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		_, pruned, err = snapshot.ReadAfter(dir, cut, 1, 0)
		if err != nil {
			t.Fatalf("probing retention: %v", err)
		}
	}
	if !pruned {
		t.Fatalf("retention never pruned past seq %d", cut)
	}

	gh.blocked.Store(false)
	got := waitConverged(t, primary, f)
	if want := CountSequential(oracle.graph(t)); got != want {
		t.Fatalf("follower %d after re-bootstrap, oracle %d", got, want)
	}
	if info := f.Info(); info.Bootstraps < 2 {
		t.Fatalf("expected a re-bootstrap, info: %+v", info)
	}
}

// Primary restart: a follower pointed at a stable address must survive the
// primary process dying and coming back (WAL replay, same data dir),
// resuming the stream from its applied cursor without re-bootstrapping.
func TestFollowerResumesAfterPrimaryRestart(t *testing.T) {
	primary, gh, hs, oracle := newReplPrimary(t, 6, Options{Ranks: 4})
	dir := primary.WALDir()
	f, err := OpenFollower(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollowerReady(t, f)

	rng := rand.New(rand.NewSource(53))
	batch := randomBatch(rng, oracle, 2, 14)
	if _, err := primary.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	oracle.apply(batch)
	waitConverged(t, primary, f)

	// Kill the primary. The follower's polls fail and back off.
	gh.blocked.Store(true)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same data dir behind the same address.
	restarted, err := OpenCluster(dir, Options{NoWALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	rh, err := restarted.ReplicationHandler()
	if err != nil {
		t.Fatal(err)
	}
	gh.inner.Store(rh)
	gh.blocked.Store(false)

	batch = randomBatch(rng, oracle, 2, 14)
	if _, err := restarted.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	oracle.apply(batch)

	got := waitConverged(t, restarted, f)
	if want := CountSequential(oracle.graph(t)); got != want {
		t.Fatalf("follower %d after primary restart, oracle %d", got, want)
	}
	if info := f.Info(); info.Bootstraps != 1 {
		t.Fatalf("restart must resume from the applied cursor, not re-bootstrap: %+v", info)
	}
}

// OpenFollower input validation: options that cannot apply to a follower
// are rejected loudly rather than silently ignored.
func TestOpenFollowerRejectsBadOptions(t *testing.T) {
	_, _, hs, _ := newReplPrimary(t, 6, Options{Ranks: 4})
	if _, err := OpenFollower(hs.URL, Options{PersistDir: t.TempDir()}); err == nil {
		t.Fatal("PersistDir on a follower must be rejected")
	}
	if _, err := OpenFollower(hs.URL, Options{Ranks: 9}); err == nil {
		t.Fatal("rank mismatch with the primary manifest must be rejected")
	}
	if _, err := OpenFollower("http://127.0.0.1:1/", Options{}); err == nil {
		t.Fatal("unreachable primary must fail bootstrap")
	}
}
