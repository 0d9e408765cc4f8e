package tc2d

// WAL-shipping read replicas. A primary is any durable Cluster whose
// ReplicationHandler is mounted on an HTTP server: followers bootstrap from
// its snapshot chain (base + deltas, exactly what OpenCluster composes from
// disk), then tail its WAL as aggregated CRC-framed record batches and
// apply them through the ordinary delta write path. N followers multiply
// read QPS by ~N while the single writer's throughput stays flat — the
// primary's write path gains only an O(1) commit-wake broadcast.
//
// Staleness is explicit: every applied frame carries the primary's
// committed sequence, so a follower always knows its lag in batches
// (LagSeq) and the wall-clock instant it was last provably caught up.
// Reads can demand a bound (ReadBound) and get ErrStaleRead instead of
// stale data when the follower cannot honor it.
//
// Failure modes, all handled without dropping in-flight reads:
//   - primary restart / network partition — the apply loop retries with
//     backoff and resumes from AppliedSeq (the stream is idempotent only in
//     the trivial sense: records are applied exactly once, continuity is
//     enforced by sequence numbers);
//   - retention pruned the follower's position (long partition) — the
//     primary answers 410 Gone and the follower re-bootstraps from the
//     newest snapshot chain;
//   - a sequence gap or a primary whose committed sequence regressed
//     (restore from an older snapshot after losing its disk) — the follower
//     discards its state and re-bootstraps rather than diverge.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tc2d/internal/delta"
	"tc2d/internal/obs"
	"tc2d/internal/repl"
	"tc2d/internal/snapshot"
)

// ErrFollowerReadOnly is returned by the write path (ApplyUpdates,
// AddVertices, RemoveVertices) of a follower's cluster: writes belong at
// the primary. The tcd daemon maps it to 421 Misdirected Request with the
// primary's URL.
var ErrFollowerReadOnly = errors.New("tc2d: follower is read-only — apply writes at the primary")

// ErrStaleRead is returned by bounded follower reads when the follower
// cannot prove it is within the requested staleness bound. Test with
// errors.Is; tcd maps it to 503 + Retry-After.
var ErrStaleRead = errors.New("tc2d: follower lag exceeds the requested staleness bound")

// ReplicationHandler returns the primary-side replication surface of a
// durable cluster, ready to mount on an HTTP server (tcd mounts it at
// /repl/). It serves the WAL as framed record batches (long-polling the
// commit wake) and the snapshot chain for follower bootstrap; see
// internal/repl for the endpoints.
func (cl *Cluster) ReplicationHandler() (http.Handler, error) {
	if cl.persist == nil {
		return nil, errNotDurable
	}
	cl.metrics.setRole("primary")
	srv := repl.NewServer(cl)
	m := cl.metrics
	srv.OnWALShip = func(records, bytes int) {
		m.replShippedFrames.Inc()
		m.replShippedRecords.Add(float64(records))
		m.replShippedBytes.Add(float64(bytes))
	}
	srv.OnSnapShip = func(bytes int) {
		m.replSnapShipBytes.Add(float64(bytes))
	}
	return srv, nil
}

// ReadBound is the staleness bound of one follower read.
type ReadBound struct {
	// MaxLagSeq caps the committed-but-unapplied batch count; 0 demands a
	// fully caught-up follower, negative values disable the bound.
	MaxLagSeq int64
	// MaxLag caps wall-clock staleness: the read fails unless the follower
	// observed itself fully caught up within the last MaxLag. 0 or negative
	// disables the bound.
	MaxLag time.Duration
}

// Unbounded reads accept any staleness.
var Unbounded = ReadBound{MaxLagSeq: -1}

// FollowerInfo is a snapshot of a follower's replication state.
type FollowerInfo struct {
	PrimaryURL string
	// State is "catching_up" until the follower first observes itself fully
	// caught up after its latest bootstrap, then "ready".
	State string
	// AppliedSeq is the last WAL sequence applied locally; PrimarySeq the
	// primary's committed sequence as of the last fetched frame; LagSeq
	// their difference.
	AppliedSeq uint64
	PrimarySeq uint64
	LagSeq     uint64
	// CaughtUp reports LagSeq == 0 with at least one caught-up observation.
	CaughtUp bool
	// LagMS is the wall-clock milliseconds since the follower last observed
	// itself fully caught up (-1 before the first observation).
	LagMS float64
	// Bootstraps counts snapshot bootstraps (the initial one included);
	// BootstrapBytes the snapshot blob bytes they fetched. AppliedBatches
	// and ReceivedBytes/Frames describe the WAL stream.
	Bootstraps     int64
	BootstrapBytes int64
	AppliedBatches int64
	ReceivedBytes  int64
	Frames         int64
	// LastError is the most recent apply-loop error ("" when healthy);
	// transient by design — the loop retries.
	LastError string
	// Cluster is the local resident cluster's info.
	Cluster ClusterInfo
}

// Follower is a read-only replica of a primary cluster. Reads (Count,
// Transitivity) serve from the local resident state under an optional
// staleness bound; the embedded apply loop tails the primary's WAL and
// keeps that state converging. Writes are rejected with
// ErrFollowerReadOnly. The caller must Close the follower.
type Follower struct {
	cl      *Cluster
	client  *repl.Client
	primary string

	appliedSeq atomic.Uint64
	primarySeq atomic.Uint64
	caughtUpAt atomic.Int64 // unix nanos of the last caught-up observation; 0 = never
	bootstraps atomic.Int64
	applied    atomic.Int64
	lastErr    atomic.Value // string

	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Follower tuning: the long-poll window of a caught-up follower, the
// per-frame payload cap, and the retry backoff bounds of the apply loop.
const (
	followPollWait   = 5 * time.Second
	followMaxBytes   = 4 << 20
	followBackoffMin = 100 * time.Millisecond
	followBackoffMax = 3 * time.Second
)

// OpenFollower opens a read-only replica of the primary at primaryURL
// (which must serve ReplicationHandler, as tcd does): the newest snapshot
// chain is fetched and composed exactly as OpenCluster composes it from
// disk — no preprocessing re-runs, PreOps == 0 — and the apply loop starts
// tailing the WAL. The rank count comes from the primary's manifest, and the
// grid, schedule and enumeration rule from its rank blobs; opt supplies the
// deployment settings (MaxVertices, ComputeSlots, Metrics). opt.PersistDir
// must be unset: a follower's durable state IS the primary's, re-fetchable
// at any time.
func OpenFollower(primaryURL string, opt Options) (*Follower, error) {
	if opt.PersistDir != "" {
		return nil, fmt.Errorf("tc2d: followers do not persist locally — unset PersistDir (the primary's chain is the durable state)")
	}
	res, err := opt.resolve()
	if err != nil {
		return nil, err
	}

	client := repl.NewClient(primaryURL)
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{client: client, primary: primaryURL, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	f.lastErr.Store("")

	chain, blobs, err := f.fetchChain(ctx)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("tc2d: follower bootstrap from %s: %w", primaryURL, err)
	}
	m := chain[len(chain)-1]
	if opt.Ranks != 0 && opt.Ranks != m.Ranks {
		cancel()
		return nil, fmt.Errorf("tc2d: primary runs %d ranks, Options.Ranks=%d", m.Ranks, opt.Ranks)
	}
	eng, err := res.newLocalEngine(m.Ranks)
	if err != nil {
		cancel()
		return nil, err
	}
	cl := newClusterOn(eng, res, m.Ranks)
	cl.readOnly = true
	if err := cl.adoptChain(chain, blobs); err != nil {
		eng.close()
		cancel()
		return nil, fmt.Errorf("tc2d: follower bootstrap from %s: %w", primaryURL, err)
	}
	cl.metrics.setRole("follower")
	cl.start()

	f.cl = cl
	f.appliedSeq.Store(m.AppliedSeq)
	f.primarySeq.Store(m.AppliedSeq)
	f.noteBootstrap(m.AppliedSeq)
	go f.applyLoop()
	return f, nil
}

// chainBlobs is the prefetched blob set of one bootstrap, fetched (and
// CRC-verified) before any resident state is touched: chainBlobs[rank] is
// that rank's blobs of the chain, base first.
type chainBlobs [][][]byte

func (b chainBlobs) fetch(rank int) ([][]byte, error) {
	if rank < 0 || rank >= len(b) {
		return nil, fmt.Errorf("tc2d: bootstrap blobs of rank %d were not prefetched", rank)
	}
	return b[rank], nil
}

// adoptChain installs a prefetched chain as the follower cluster's resident
// state — through the same restore op OpenCluster uses, so no preprocessing
// re-runs — and takes over the terminal manifest's cluster-level totals. A
// failed restore leaves the previous state serving. Followers write no
// snapshots, hence no dirty tracking.
func (cl *Cluster) adoptChain(chain []*snapshot.Manifest, blobs chainBlobs) error {
	if err := cl.restoreChain(chain, blobs.fetch, false); err != nil {
		return err
	}
	m := chain[len(chain)-1]
	cl.lastTri.Store(m.Triangles)
	cl.baseM, cl.appliedEdges = m.BaseM, m.AppliedEdges
	return nil
}

// fetchChain resolves the primary's newest snapshot chain and prefetches
// every rank blob into memory. Nothing of the local state is touched: a
// fetch failure (or a chain pruned mid-walk) leaves the follower serving
// what it has.
func (f *Follower) fetchChain(ctx context.Context) ([]*snapshot.Manifest, chainBlobs, error) {
	newest, ok, err := f.client.NewestSnapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, fmt.Errorf("primary has published no snapshot yet")
	}
	term, err := f.client.Manifest(ctx, newest)
	if err != nil {
		return nil, nil, err
	}
	chain, err := loadChain(term, func(seq uint64) (*snapshot.Manifest, error) { return f.client.Manifest(ctx, seq) })
	if err != nil {
		return nil, nil, err
	}
	blobs := make(chainBlobs, term.Ranks)
	for _, m := range chain {
		for r := range blobs {
			blob, err := f.client.RankBlob(ctx, m, r)
			if err != nil {
				return nil, nil, err
			}
			blobs[r] = append(blobs[r], blob)
		}
	}
	return chain, blobs, nil
}

// noteBootstrap records one completed bootstrap in the counters and resets
// the caught-up clock: freshly bootstrapped state is not provably current
// until a frame confirms it.
func (f *Follower) noteBootstrap(seq uint64) {
	f.bootstraps.Add(1)
	f.caughtUpAt.Store(0)
	f.cl.metrics.replBootstraps.Inc()
	f.cl.metrics.replAppliedSeq.Set(float64(seq))
}

// applyLoop is the follower's resident replication goroutine: fetch a
// frame, apply it, repeat — with backoff on transient errors and a
// re-bootstrap on ErrGone, sequence gaps, or a regressed primary.
func (f *Follower) applyLoop() {
	defer close(f.done)
	backoff := followBackoffMin
	for f.ctx.Err() == nil {
		// Until the first caught-up observation (bootstrap, re-bootstrap)
		// fetch without waiting: an already-current follower learns so from
		// the immediate empty frame instead of sitting out one long poll.
		wait := followPollWait
		if f.caughtUpAt.Load() == 0 {
			wait = 0
		}
		frame, err := f.client.Frame(f.ctx, f.appliedSeq.Load(), followMaxBytes, wait)
		if err == nil {
			err = f.applyFrame(frame)
			if err == nil {
				f.lastErr.Store("")
				backoff = followBackoffMin
				continue
			}
			if errors.Is(err, ErrClosed) {
				return
			}
			// A frame that cannot be applied in sequence means the log and
			// our state have diverged — fall through to re-bootstrap.
			err = fmt.Errorf("%w: %v", repl.ErrGone, err)
		}
		if f.ctx.Err() != nil {
			return
		}
		if errors.Is(err, repl.ErrGone) {
			f.lastErr.Store(err.Error())
			if rerr := f.rebootstrap(); rerr == nil {
				f.lastErr.Store("")
				backoff = followBackoffMin
				continue
			} else if errors.Is(rerr, ErrClosed) {
				return
			} else {
				f.lastErr.Store(fmt.Sprintf("re-bootstrap: %v", rerr))
			}
		} else {
			f.lastErr.Store(err.Error())
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > followBackoffMax {
			backoff = followBackoffMax
		}
	}
}

// applyFrame applies one fetched frame: every record decoded and the whole
// frame validated against our position BEFORE the gate is taken, then each
// batch applied as one exclusive write epoch — the same path a primary
// write takes, so counts stay exact on any layout. An error before the
// first epoch leaves the resident state untouched.
func (f *Follower) applyFrame(frame *repl.Frame) error {
	applied := f.appliedSeq.Load()
	if frame.Committed < applied {
		return fmt.Errorf("primary committed seq %d regressed below applied %d (primary lost acked state)", frame.Committed, applied)
	}
	f.primarySeq.Store(frame.Committed)
	f.syncLagMetrics()
	if len(frame.Records) == 0 {
		if frame.Committed == applied {
			f.markCaughtUp()
		}
		return nil
	}
	if frame.Records[0].Seq != applied+1 {
		return fmt.Errorf("stream gap: next record is %d, applied is %d", frame.Records[0].Seq, applied)
	}
	batches := make([][]delta.Update, len(frame.Records))
	for i, rec := range frame.Records {
		batch, err := decodeBatch(rec.Payload)
		if err != nil {
			return err
		}
		batches[i] = batch
	}

	cl := f.cl
	cl.sched.gate.Lock()
	defer cl.sched.gate.Unlock()
	if cl.closed.Load() {
		return ErrClosed
	}
	// Delta maintenance needs an exact base count, exactly as the primary's
	// write path does (the bootstrapped manifest carries -1 when the primary
	// had not counted before its snapshot).
	if cl.lastTri.Load() < 0 {
		if _, err := cl.countEpoch(nil); err != nil {
			return fmt.Errorf("base count before replicated apply: %w", err)
		}
	}
	for i, batch := range batches {
		res, err := cl.applyEpoch(batch)
		if err != nil {
			return fmt.Errorf("replicated apply of batch %d: %w", frame.Records[i].Seq, err)
		}
		cl.commitApply(res)
		cl.updates.Add(1)
		cl.metrics.writeEpochs.Inc()
		f.appliedSeq.Store(frame.Records[i].Seq)
		f.applied.Add(1)
	}
	cl.syncGraphMetrics()
	f.syncLagMetrics()
	m := cl.metrics
	m.replBatchesApplied.Add(float64(len(batches)))
	m.replReceivedBytes.Add(float64(f.client.WALBytes() - int64(m.replReceivedBytes.Value())))
	// Staleness: the follower maintains its own layout freshness — at most
	// one rebuild per frame, under the gate we already hold. A rebuild
	// failure is not fatal to replication (counts stay exact on the stale
	// layout); it surfaces through LastError.
	if cl.stale() {
		if err := cl.rebuildLocked(); err != nil {
			f.lastErr.Store(fmt.Sprintf("staleness rebuild: %v", err))
		}
	}
	if f.appliedSeq.Load() == frame.Committed {
		f.markCaughtUp()
	}
	return nil
}

// rebootstrap discards the follower's position and re-composes the newest
// snapshot chain from the primary — the catch-up path when the WAL no
// longer reaches back to AppliedSeq (retention pruning, a primary that
// lost acked state). The fetch runs without any lock, so in-flight reads
// keep serving the old state; only the decode-and-swap takes the exclusive
// gate, exactly like a write epoch.
func (f *Follower) rebootstrap() error {
	chain, blobs, err := f.fetchChain(f.ctx)
	if err != nil {
		return err
	}
	m := chain[len(chain)-1]
	cl := f.cl
	cl.sched.gate.Lock()
	defer cl.sched.gate.Unlock()
	if cl.closed.Load() {
		return ErrClosed
	}
	if m.Ranks != cl.ranks {
		return fmt.Errorf("primary changed world size (now %d ranks): follower must be restarted", m.Ranks)
	}
	if err := cl.adoptChain(chain, blobs); err != nil {
		return err
	}
	cl.syncGraphMetrics()
	f.appliedSeq.Store(m.AppliedSeq)
	if f.primarySeq.Load() < m.AppliedSeq {
		f.primarySeq.Store(m.AppliedSeq)
	}
	f.noteBootstrap(m.AppliedSeq)
	f.syncLagMetrics()
	return nil
}

func (f *Follower) markCaughtUp() {
	f.caughtUpAt.Store(time.Now().UnixNano())
	f.syncLagMetrics()
}

func (f *Follower) syncLagMetrics() {
	m := f.cl.metrics
	applied, primary := f.appliedSeq.Load(), f.primarySeq.Load()
	m.replAppliedSeq.Set(float64(applied))
	m.replPrimarySeq.Set(float64(primary))
	if primary > applied {
		m.replLagSeq.Set(float64(primary - applied))
	} else {
		m.replLagSeq.Set(0)
	}
	if d := float64(f.client.SnapshotBytes()) - m.replBootstrapBytes.Value(); d > 0 {
		m.replBootstrapBytes.Add(d)
	}
}

// LagSeq is the follower's current lag in committed-but-unapplied batches.
func (f *Follower) LagSeq() uint64 {
	applied, primary := f.appliedSeq.Load(), f.primarySeq.Load()
	if primary <= applied {
		return 0
	}
	return primary - applied
}

// checkBound admits or rejects one read under its staleness bound.
func (f *Follower) checkBound(b ReadBound) error {
	if b.MaxLagSeq >= 0 {
		if lag := f.LagSeq(); lag > uint64(b.MaxLagSeq) {
			return fmt.Errorf("%w: lag is %d batches, bound is %d", ErrStaleRead, lag, b.MaxLagSeq)
		}
	}
	if b.MaxLag > 0 {
		at := f.caughtUpAt.Load()
		if at == 0 {
			return fmt.Errorf("%w: follower has not caught up since its last bootstrap", ErrStaleRead)
		}
		if since := time.Since(time.Unix(0, at)); since > b.MaxLag {
			return fmt.Errorf("%w: last caught up %s ago, bound is %s", ErrStaleRead, since.Round(time.Millisecond), b.MaxLag)
		}
	}
	return nil
}

// Count serves one counting query from the local resident state, provided
// the follower can prove it is within the staleness bound.
func (f *Follower) Count(q QueryOptions, b ReadBound) (*Result, error) {
	if err := f.checkBound(b); err != nil {
		return nil, err
	}
	return f.cl.Count(q)
}

// CountTraced is Count with a per-query execution trace.
func (f *Follower) CountTraced(q QueryOptions, b ReadBound) (*Result, *obs.Trace, error) {
	if err := f.checkBound(b); err != nil {
		return nil, nil, err
	}
	return f.cl.CountTraced(q)
}

// Transitivity serves the global clustering coefficient under the bound.
func (f *Follower) Transitivity(b ReadBound) (float64, error) {
	if err := f.checkBound(b); err != nil {
		return 0, err
	}
	return f.cl.Transitivity()
}

// Info returns a snapshot of the follower's replication state.
func (f *Follower) Info() FollowerInfo {
	applied, primary := f.appliedSeq.Load(), f.primarySeq.Load()
	info := FollowerInfo{
		PrimaryURL:     f.primary,
		State:          "catching_up",
		AppliedSeq:     applied,
		PrimarySeq:     primary,
		LagSeq:         f.LagSeq(),
		LagMS:          -1,
		Bootstraps:     f.bootstraps.Load(),
		BootstrapBytes: f.client.SnapshotBytes(),
		AppliedBatches: f.applied.Load(),
		ReceivedBytes:  f.client.WALBytes(),
		Frames:         f.client.Frames(),
		LastError:      f.lastErr.Load().(string),
		Cluster:        f.cl.Info(),
	}
	if at := f.caughtUpAt.Load(); at != 0 {
		info.State = "ready"
		info.LagMS = float64(time.Since(time.Unix(0, at)).Nanoseconds()) / 1e6
		info.CaughtUp = info.LagSeq == 0
	}
	return info
}

// Metrics returns the follower's observability registry (role, lag and
// applied-batch series included).
func (f *Follower) Metrics() *obs.Registry { return f.cl.Metrics() }

// Cluster exposes the follower's local resident cluster for reads,
// statistics and metrics. It is read-only: its write path returns
// ErrFollowerReadOnly. Reads through it bypass staleness bounds — use
// Follower.Count for bounded reads.
func (f *Follower) Cluster() *Cluster { return f.cl }

// Close stops the apply loop and releases the local cluster. In-flight
// reads finish; Close is idempotent.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		f.cancel()
		<-f.done
		f.closeErr = f.cl.Close()
	})
	return f.closeErr
}
