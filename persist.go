package tc2d

// Durability: when Options.PersistDir is set, a Cluster keeps its resident
// state recoverable across process restarts.
//
//   - NewCluster writes an initial snapshot (the freshly prepared state,
//     one checksummed blob per rank, encoded in parallel) and opens the
//     write-ahead log.
//   - Every coalesced super-batch the write scheduler commits is appended
//     to the WAL — fsynced per commit unless Options.NoWALSync — BEFORE
//     its callers are acknowledged, so an acknowledged update survives a
//     crash.
//   - Snapshot() (and the automatic trigger, once the WAL covers more than
//     half the edge count at the last build) persists the current state
//     and rotates the WAL; a snapshot supersedes the older WAL segments,
//     which are pruned.
//   - OpenCluster(dir, opt) restores: newest valid snapshot, decoded in
//     parallel — without re-running the preprocessing pipeline, so the
//     restored cluster reports PreOps == 0 — then the WAL tail replayed
//     through the ordinary delta-apply path. Kill-at-any-point recovery is
//     exact: a torn WAL tail is truncated, a corrupt snapshot falls back to
//     the previous one (whose WAL segments are retained), and counts equal
//     what a from-scratch cluster over the mutated graph would report.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tc2d/internal/delta"
	"tc2d/internal/obs"
	"tc2d/internal/snapshot"
)

// ErrSnapshotCorrupt marks persistent state that cannot be trusted: an
// unknown snapshot format version, a checksum or size mismatch on a rank
// blob or WAL record outside the torn-tail window, or a WAL sequence gap.
// Loads fail whole — no partial state is ever installed. Test with
// errors.Is.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// ErrNoSnapshot is returned by OpenCluster when the persistence directory
// holds no snapshot at all — the caller should build the cluster from its
// graph source instead (with Options.PersistDir set, so the state becomes
// durable from then on).
var ErrNoSnapshot = errors.New("tc2d: persistence directory holds no snapshot")

// SnapshotInfo describes one published snapshot.
type SnapshotInfo struct {
	// Seq is the WAL sequence the snapshot covers: the persisted state is
	// the graph after the first Seq committed write batches.
	Seq uint64
	// Path is the published snapshot directory.
	Path string
	// Bytes is the total size of the per-rank state blobs.
	Bytes int64
	// Triangles is the maintained triangle total at snapshot time (-1 if no
	// count had completed yet).
	Triangles int64
	// Kind is "base" for a full-state snapshot and "delta" for a
	// churn-proportional diff chained off the previous snapshot; ChainLen
	// is the number of deltas between this snapshot and its base (0 for a
	// base).
	Kind     string
	ChainLen int
}

// PersistInfo is the durability section of ClusterInfo. The zero value
// means Options.PersistDir was unset.
type PersistInfo struct {
	Enabled bool
	Dir     string
	// WALSeq is the sequence number of the last committed batch; WALRecords
	// and WALBytes count the appends performed by this process.
	WALSeq     uint64
	WALRecords int64
	WALBytes   int64
	// ReplayedBatches is how many WAL records OpenCluster replayed at boot.
	ReplayedBatches int64
	// Snapshots counts the snapshots written by this process;
	// LastSnapshotSeq is the sequence the newest one covers.
	Snapshots       int64
	LastSnapshotSeq uint64
	// DeltaSnapshots is the subset of Snapshots written as delta blobs.
	// BaseSnapshotSeq is the sequence of the base the current chain hangs
	// off, ChainLen the number of deltas since it, and ChurnSinceBase the
	// effective edge mutations accumulated since that base — the compaction
	// policy's currency.
	DeltaSnapshots  int64
	BaseSnapshotSeq uint64
	ChainLen        int
	ChurnSinceBase  int64
}

// persister is a Cluster's durability state. WAL appends happen only on the
// write path (sched.gate held exclusively). snapMu serializes snapshot
// creation — held across the encode epoch and the fsync'd writes, which can
// take a while; mu guards only the counters and is held briefly, so Info()
// (and tcd's /stats) never blocks behind an in-flight snapshot.
type persister struct {
	dir string

	snapMu sync.Mutex // serializes snapshotShared end to end

	mu        sync.Mutex
	wal       *snapshot.WAL
	seq       uint64 // last committed batch sequence
	snapSeq   uint64 // sequence covered by the newest snapshot
	walEdges  int64  // effective edge mutations logged since that snapshot
	replayed  int64
	snapshots int64
	lastInfo  *SnapshotInfo
	failed    error // set when the WAL can no longer be trusted to be ahead

	// seqWait is the commit wake: closed (and replaced) on every committed
	// append, so WAL streamers long-polling for records past the committed
	// sequence unblock without polling the log. walDone marks the WAL handle
	// closed; waiters return instead of spinning on the final broadcast.
	seqWait chan struct{}
	walDone bool

	// Delta-chain state. baseSeq/haveBase name the base snapshot the chain
	// hangs off; chainLen counts the deltas since it; churnBase the
	// effective edge mutations since it (never reset by delta snapshots —
	// it is the compaction trigger's currency). forceBase makes the next
	// snapshot a fresh base: a full rebuild swapped in state the chain never
	// captured, or an unpublished snapshot's encode epoch reset the dirty
	// sets the next delta needs.
	baseSeq   uint64
	haveBase  bool
	chainLen  int
	churnBase int64
	forceBase bool
	deltas    int64 // delta snapshots written by this process
}

// commitSnapshot publishes a snapshot whose blobs are written; a variable so
// tests can fail a commit after the encode epoch.
var commitSnapshot = (*snapshot.Writer).Commit

// snapshotChainLimit caps how many delta snapshots may chain off one base
// before the next snapshot compacts the chain into a fresh base. Restores
// replay the whole chain, so the limit bounds both restore work and the
// blast radius of a corrupt chain member.
const snapshotChainLimit = 4

// needBase makes the next snapshot a base.
func (p *persister) needBase() {
	p.mu.Lock()
	p.forceBase = true
	p.mu.Unlock()
}

// brokenErr reports the retirement error, if the persister has one.
func (p *persister) brokenErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// errNotDurable is returned by Snapshot on clusters built without
// Options.PersistDir.
var errNotDurable = errors.New("tc2d: cluster has no PersistDir — persistence is disabled")

// snapshotRetention is how many snapshots (and their WAL segments) are kept
// on disk: the newest plus one fallback, so a corrupt newest snapshot can
// still recover exactly through the previous snapshot's longer WAL tail.
const snapshotRetention = 2

// encodeBatch serializes one committed super-batch for the WAL: an entry
// count followed by (u, v, op) triples, explicitly little-endian like every
// other persisted structure, so the directory is portable across hosts.
func encodeBatch(batch []delta.Update) []byte {
	b := make([]byte, 0, 4+12*len(batch))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(batch)))
	for _, upd := range batch {
		b = binary.LittleEndian.AppendUint32(b, uint32(upd.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(upd.V))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(upd.Op)))
	}
	return b
}

func decodeBatch(b []byte) ([]delta.Update, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("tc2d: WAL record payload malformed: %w", ErrSnapshotCorrupt)
	}
	n := int(int32(binary.LittleEndian.Uint32(b)))
	if n < 0 || len(b) != 4+12*n {
		return nil, fmt.Errorf("tc2d: WAL record payload malformed: %w", ErrSnapshotCorrupt)
	}
	batch := make([]delta.Update, n)
	for i := range batch {
		off := 4 + 12*i
		// delta.Op is narrower than its word: an unknown op must not be
		// truncated into a known one.
		op := int32(binary.LittleEndian.Uint32(b[off+8:]))
		if op < int32(delta.OpInsert) || op > int32(delta.OpRemoveVertex) {
			return nil, fmt.Errorf("tc2d: WAL record entry %d has unknown op %d: %w", i, op, ErrSnapshotCorrupt)
		}
		batch[i] = delta.Update{
			U:  int32(binary.LittleEndian.Uint32(b[off:])),
			V:  int32(binary.LittleEndian.Uint32(b[off+4:])),
			Op: delta.Op(op),
		}
	}
	return batch, nil
}

// initPersist sets up durability on a freshly built cluster: the directory
// must not already hold persistent state (reopen that with OpenCluster
// instead — silently overwriting another cluster's snapshots would be data
// loss), the WAL opens at sequence 0, and the initial snapshot of the
// just-prepared state is published so a restart never re-runs the pipeline.
func (cl *Cluster) initPersist(res *resolvedOptions) error {
	dir := res.PersistDir
	seqs, err := snapshot.List(dir)
	if err != nil {
		return err
	}
	if len(seqs) > 0 {
		return fmt.Errorf("tc2d: PersistDir %s already holds cluster state; use OpenCluster to restore it", dir)
	}
	// No published snapshot: anything else in the directory (a WAL segment,
	// a snapshot temp dir) is the artifact of a first boot that crashed
	// before its initial snapshot landed — there is nothing to restore from
	// it, so clear it and build fresh rather than brick the directory.
	if err := snapshot.RemoveBootArtifacts(dir); err != nil {
		return err
	}
	// The build op enabled per-row/label dirty tracking (wireBuild.Track), so
	// every snapshot after this initial base can be a churn-proportional
	// delta.
	p, err := cl.newPersister(res, dir, 0, 0)
	if err != nil {
		return err
	}
	cl.persist = p
	if _, err := cl.snapshotShared(nil); err != nil {
		p.wal.Close()
		cl.persist = nil
		return fmt.Errorf("tc2d: initial snapshot: %w", err)
	}
	return nil
}

// newPersister opens the write-ahead log under dir for appending after
// lastSeq and returns the durability state of a cluster with no snapshot
// yet; openCluster advances the counters to what it restored.
func (cl *Cluster) newPersister(res *resolvedOptions, dir string, base, lastSeq uint64) (*persister, error) {
	wal, err := snapshot.CreateWAL(dir, base, lastSeq, !res.NoWALSync)
	if err != nil {
		return nil, err
	}
	wal.SetObserver(cl.metrics.walObserver())
	return &persister{
		dir:     dir,
		wal:     wal,
		seqWait: make(chan struct{}),
		seq:     lastSeq,
	}, nil
}

// logCommitted appends one committed super-batch to the WAL. Called on the
// write path with sched.gate held exclusively, after the epoch mutated the
// resident state and before any caller is acknowledged: an acknowledged
// batch is always durable. effEdges is the epoch's effective mutation count
// (the auto-snapshot trigger's currency).
func (cl *Cluster) logCommitted(batch []delta.Update, effEdges int64) error {
	p := cl.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil {
		return p.failed
	}
	if err := p.wal.Append(p.seq+1, encodeBatch(batch)); err != nil {
		// The in-memory state now leads the durable state; further appends
		// would persist a stream with a hole, so the WAL is retired.
		p.failed = fmt.Errorf("tc2d: WAL append failed, cluster is no longer durable: %w", err)
		return p.failed
	}
	p.seq++
	p.walEdges += effEdges
	p.churnBase += effEdges
	close(p.seqWait)
	p.seqWait = make(chan struct{})
	return nil
}

// CommittedSeq reports the sequence number of the last durably committed
// (acknowledged) write batch — 0 on clusters without a PersistDir. This and
// the two methods below make a durable Cluster a repl.Source: the WAL
// streaming surface reads segments straight from the persistence directory
// and long-polls on the commit wake.
func (cl *Cluster) CommittedSeq() uint64 {
	p := cl.persist
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq
}

// WALDir is the persistence directory, "" when durability is disabled.
func (cl *Cluster) WALDir() string {
	if cl.persist == nil {
		return ""
	}
	return cl.persist.dir
}

// WaitCommitted blocks until the committed sequence exceeds after, the
// context is done, or the cluster closes, and returns the committed
// sequence either way.
func (cl *Cluster) WaitCommitted(ctx context.Context, after uint64) uint64 {
	p := cl.persist
	if p == nil {
		return 0
	}
	for {
		p.mu.Lock()
		seq, ch, done := p.seq, p.seqWait, p.walDone
		p.mu.Unlock()
		if seq > after || done {
			return seq
		}
		select {
		case <-ctx.Done():
			return seq
		case <-ch:
		}
	}
}

// autoSnapshotDue evaluates the snapshot trigger after a write drain, with
// sched.gate held exclusively (so baseM and the WAL counters are stable):
// once the WAL has accumulated effective mutations beyond snapshotFraction
// of the edge count at the last build — the same staleness currency the
// rebuild trigger uses — the state should be persisted and the WAL
// rotated. The caller then runs the snapshot under the shared gate, so
// queries are not stalled; errors are not fatal to the write path (the WAL
// keeps the cluster recoverable) and the next drain retries.
func (cl *Cluster) autoSnapshotDue() bool {
	p := cl.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed == nil && p.seq > p.snapSeq &&
		float64(p.walEdges) > snapshotFraction*float64(cl.baseM)
}

// Snapshot persists the current resident state: every rank encodes and
// writes its own checksummed blob in parallel inside a read epoch (queries
// keep running; writes are excluded by the scheduler gate the caller
// shares), the manifest is published with an atomic rename, the WAL is
// rotated, and snapshots/segments superseded beyond the retention window
// are pruned. Concurrent Snapshot calls serialize; calling it again with no
// interleaving write is a no-op returning the existing snapshot. Close
// waits for an in-flight Snapshot to finish before tearing the world down.
// The write path also snapshots on its own, once the WAL holds effective
// mutations beyond half the edge count at the last build.
func (cl *Cluster) Snapshot() (*SnapshotInfo, error) {
	return cl.snapshotTraced(nil)
}

// SnapshotTraced is Snapshot with a per-request execution trace bracketing
// admission, the parallel encode-and-write epoch, the manifest commit and
// the WAL rotation. The trace is returned even when the snapshot fails.
func (cl *Cluster) SnapshotTraced() (*SnapshotInfo, *obs.Trace, error) {
	tr := obs.NewTrace("snapshot")
	info, err := cl.snapshotTraced(tr)
	tr.End()
	return info, tr, err
}

// snapshotTraced is Snapshot carrying an optional per-request trace whose
// spans the snapshot phases fill in.
func (cl *Cluster) snapshotTraced(tr *obs.Trace) (*SnapshotInfo, error) {
	start := time.Now()
	adm := tr.Span().StartChild("admission")
	cl.sched.gate.RLock()
	adm.End()
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	if cl.persist == nil {
		return nil, errNotDurable
	}
	info, err := cl.snapshotShared(tr.Span())
	cl.metrics.observeOp("snapshot", start, err)
	return info, err
}

// snapshotShared writes one snapshot, recording its phases under parent
// when that is non-nil. The caller holds sched.gate (shared or exclusive)
// — or, during NewCluster, has not yet published the cluster — so the
// resident state cannot change underneath the encoding epoch.
func (cl *Cluster) snapshotShared(parent *obs.Span) (*SnapshotInfo, error) {
	p := cl.persist
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	// Counter reads under the brief lock; they cannot move while we work:
	// seq and walEdges only change on the write path, which the caller's
	// scheduler gate excludes, and snapSeq/lastInfo only change under
	// snapMu, which we hold.
	p.mu.Lock()
	if p.failed != nil {
		err := p.failed
		p.mu.Unlock()
		return nil, err
	}
	seq := p.seq
	if p.lastInfo != nil && seq == p.snapSeq {
		info := *p.lastInfo
		p.mu.Unlock()
		return &info, nil
	}
	snapSeq := p.snapSeq
	// Delta eligibility: a base must exist for the chain to hang off, the
	// resident state must not have been swapped by a full rebuild since,
	// the chain must be under its length limit, and the churn accumulated
	// since the base must be modest — past snapshotFraction of the base
	// edge count per chain link, replaying the chain approaches the cost of
	// a base, so the snapshot compacts instead. cl.baseM is stable here:
	// it only changes on the write path, which the caller's gate excludes.
	useDelta := p.haveBase && !p.forceBase &&
		p.chainLen < snapshotChainLimit &&
		float64(p.churnBase) <= snapshotFraction*float64(cl.baseM)*snapshotChainLimit
	parentSeq := p.snapSeq
	chainLen := p.chainLen + 1
	churnBase := p.churnBase
	p.mu.Unlock()

	// Nothing committed since the snapshot on disk (possible right after a
	// restore, when lastInfo is not yet cached): if that snapshot still
	// validates, adopt it instead of rewriting it — rewriting a same-seq
	// snapshot would pass through a delete+rename window in which a crash
	// could destroy the only copy.
	if seq == snapSeq {
		if m, err := snapshot.Load(p.dir, seq); err == nil {
			info := infoFromManifest(p.dir, m)
			p.mu.Lock()
			p.lastInfo = &info
			p.mu.Unlock()
			cp := info
			return &cp, nil
		}
	}

	start := time.Now()
	w, err := snapshot.NewWriter(p.dir, seq)
	if err != nil {
		return nil, err
	}
	// Every rank encodes its blob inside one read epoch; the files are
	// written here, concurrently, to this process's disk — on a coordinator
	// that is what keeps the durable state with the coordinator and makes
	// worker recovery and replacement possible. The epoch also resets the
	// ranks' dirty sets: from here on, a failure makes the next one a base.
	encodeSpan := parent.StartChild("encode_write")
	var bytes int64
	replies, err := cl.run(opEncodeSnap, &wireSnap{Delta: useDelta})
	if err == nil {
		errs := make([]error, len(replies))
		var wg sync.WaitGroup
		for r, rep := range replies {
			if rep == nil {
				errs[r] = fmt.Errorf("tc2d: snapshot epoch: rank %d returned no blob", r)
				continue
			}
			bytes += int64(len(rep.Blob))
			wg.Add(1)
			go func(r int, blob []byte) {
				defer wg.Done()
				errs[r] = w.WriteRank(r, blob)
			}(r, rep.Blob)
		}
		wg.Wait()
		err = errors.Join(errs...)
	}
	encodeSpan.End()
	if err != nil {
		w.Abort()
		p.needBase()
		return nil, err
	}
	tri := cl.lastTri.Load()
	m := snapshot.Manifest{
		AppliedSeq:   seq,
		Ranks:        cl.ranks,
		Triangles:    tri,
		BaseM:        cl.baseM,
		AppliedEdges: cl.appliedEdges,
		Kind:         snapshot.KindBase,
	}
	if useDelta {
		m.Kind = snapshot.KindDelta
		m.ParentSeq = parentSeq
		m.ChainLen = chainLen
		m.ChurnSinceBase = churnBase
	}
	commitSpan := parent.StartChild("commit")
	if err := commitSnapshot(w, m); err != nil {
		commitSpan.End()
		w.Abort()
		p.needBase()
		return nil, err
	}
	commitSpan.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	rotateSpan := parent.StartChild("rotate")
	err = p.wal.Rotate(seq)
	rotateSpan.End()
	if err != nil {
		// The snapshot is published and valid, but the WAL tail cannot
		// continue safely.
		p.failed = fmt.Errorf("tc2d: WAL rotation after snapshot failed, cluster is no longer durable: %w", err)
		return nil, p.failed
	}
	p.snapSeq = seq
	p.walEdges = 0
	p.snapshots++
	if useDelta {
		p.chainLen = chainLen
		p.deltas++
	} else {
		p.baseSeq = seq
		p.haveBase = true
		p.chainLen = 0
		p.churnBase = 0
		p.forceBase = false
	}
	snapshot.PruneChains(p.dir, snapshotRetention)
	kind := snapshot.KindBase
	if useDelta {
		kind = snapshot.KindDelta
	}
	p.lastInfo = &SnapshotInfo{
		Seq: seq, Path: snapshot.Dir(p.dir, seq), Bytes: bytes, Triangles: tri,
		Kind: kind, ChainLen: m.ChainLen,
	}
	mm := cl.metrics
	mm.snapWrites.Inc()
	mm.snapSeconds.Observe(time.Since(start).Seconds())
	mm.snapBytes.Observe(float64(bytes))
	mm.snapLastSeq.Set(float64(seq))
	if useDelta {
		mm.snapDeltaWrites.Inc()
		mm.snapDeltaBytes.Observe(float64(bytes))
	}
	info := *p.lastInfo
	return &info, nil
}

// infoFromManifest rebuilds a SnapshotInfo for an already-published
// snapshot (used when a restore or a no-op Snapshot adopts what is on
// disk rather than writing anew).
func infoFromManifest(dir string, m *snapshot.Manifest) SnapshotInfo {
	var bytes int64
	for _, rf := range m.RankFiles {
		bytes += rf.Size
	}
	kind := m.Kind
	if kind == "" {
		kind = snapshot.KindBase
	}
	return SnapshotInfo{
		Seq: m.AppliedSeq, Path: snapshot.Dir(dir, m.AppliedSeq), Bytes: bytes,
		Triangles: m.Triangles, Kind: kind, ChainLen: m.ChainLen,
	}
}

// persistInfo snapshots the durability stats for ClusterInfo.
func (cl *Cluster) persistInfo() PersistInfo {
	p := cl.persist
	if p == nil {
		return PersistInfo{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	records, bytes := p.wal.Stats()
	return PersistInfo{
		Enabled:         true,
		Dir:             p.dir,
		WALSeq:          p.seq,
		WALRecords:      records,
		WALBytes:        bytes,
		ReplayedBatches: p.replayed,
		Snapshots:       p.snapshots,
		LastSnapshotSeq: p.snapSeq,
		DeltaSnapshots:  p.deltas,
		BaseSnapshotSeq: p.baseSeq,
		ChainLen:        p.chainLen,
		ChurnSinceBase:  p.churnBase,
	}
}

// closePersist releases the WAL handle after the world has come down.
func (cl *Cluster) closePersist() {
	if cl.persist == nil {
		return
	}
	p := cl.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wal.Close()
	if !p.walDone {
		p.walDone = true
		close(p.seqWait)
	}
}

// OpenCluster restores a resident cluster from a persistence directory
// written by a previous process: the newest valid snapshot is loaded — each
// rank reads and decodes its own checksummed blob in parallel; the
// preprocessing pipeline does NOT re-run, so the restored cluster reports
// PreOps == 0 — and the WAL tail beyond the snapshot is replayed through
// the ordinary delta-apply path, reproducing exactly the state of every
// batch acknowledged before the previous process died. A torn record at
// the WAL tail (a crash mid-append) is truncated; a corrupt newest
// snapshot falls back to the previous one, whose WAL segments the
// retention policy kept. Unrecoverable damage fails with
// ErrSnapshotCorrupt; an empty directory with ErrNoSnapshot.
//
// The rank count comes from the snapshot manifest, and the grid, schedule
// and enumeration rule from the rank blobs, so a state keeps the layout it
// was built with; opt supplies the deployment settings (MaxVertices,
// NoWALSync, ComputeSlots, Metrics). A non-zero opt.Ranks conflicting with
// the manifest is an error.
// opt.PersistDir is ignored: dir is the persistence directory, and the
// reopened cluster continues appending to its WAL.
func OpenCluster(dir string, opt Options) (*Cluster, error) {
	return openCluster(dir, opt, (*resolvedOptions).newLocalEngine)
}

// openCluster is the constructor behind OpenCluster and
// OpenClusterCoordinator: the newest loadable manifest names the world shape
// the engine is stood up for, the newest snapshot chain that validates is
// installed through the restore op, and the WAL tail replays through the
// apply op.
func openCluster(dir string, opt Options, newEngine func(res *resolvedOptions, p int) (engine, error)) (*Cluster, error) {
	res, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	shape, err := snapshot.LoadNewest(dir)
	if err != nil {
		return nil, err
	}
	if shape == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
	}
	if opt.Ranks != 0 && opt.Ranks != shape.Ranks {
		return nil, fmt.Errorf("tc2d: snapshot was taken on %d ranks, Options.Ranks=%d", shape.Ranks, opt.Ranks)
	}
	eng, err := newEngine(res, shape.Ranks)
	if err != nil {
		return nil, err
	}
	cl := newClusterOn(eng, res, shape.Ranks)
	if err := cl.restoreDir(res, dir); err != nil {
		eng.close()
		return nil, err
	}
	return cl.start(), nil
}

// restoreDir brings an idle cluster to the durable state under dir and
// resumes its WAL there.
func (cl *Cluster) restoreDir(res *resolvedOptions, dir string) error {
	m, chain, err := cl.restoreNewest(dir, true)
	if err != nil {
		return err
	}
	// The terminal manifest carries the cluster-level totals.
	cl.lastTri.Store(m.Triangles)
	cl.baseM, cl.appliedEdges = m.BaseM, m.AppliedEdges

	// Layout refreshes (rebuilds) are deliberately NOT replayed — delta
	// counting is exact on any layout — so restore performs zero
	// preprocessing; the carried-over staleness counters let the next live
	// write drain trigger a rebuild if one is due.
	var replayed, walEdges int64
	last, newestBase, haveSegments, err := cl.replayWAL(dir, m.AppliedSeq, func(res *delta.Result) {
		walEdges += cl.commitApply(res)
		replayed++
	})
	if err != nil {
		return err
	}
	if !haveSegments {
		newestBase = m.AppliedSeq
	}
	p, err := cl.newPersister(res, dir, newestBase, last)
	if err != nil {
		return err
	}
	cl.metrics.walReplayed.Add(float64(replayed))
	restoredInfo := infoFromManifest(dir, m)
	p.snapSeq, p.walEdges, p.replayed, p.lastInfo = m.AppliedSeq, walEdges, replayed, &restoredInfo
	// Resume the compaction policy where the previous process left off: the
	// chain's base, its current length, and the churn accumulated since the
	// base — including what the WAL replay just re-applied.
	p.baseSeq, p.haveBase = chain[0].AppliedSeq, true
	p.chainLen, p.churnBase = len(chain)-1, m.ChurnSinceBase+walEdges
	cl.persist = p
	return nil
}

// restoreNewest installs the newest snapshot under dir that validates, trying
// manifests newest-first: a candidate whose manifest, delta chain or rank
// blobs fail validation falls through to the one before. A delta terminal
// restores through its whole chain; a corrupt chain member fails the
// terminal, and the walk eventually reaches an intact prefix of the chain —
// or the base itself — whose longer WAL tail replays the difference. With
// prune, a rejected candidate is deleted once a fallback remains, so the
// retention policy never counts a known-corrupt snapshot toward its quota
// (keeping it could evict the valid fallback on the next prune; its data
// fails its checksums, so nothing recoverable is lost), while a sole corrupt
// snapshot is kept for post-mortem. Only damage walks on: a lost worker or a
// degraded world is not a data problem and aborts the walk.
func (cl *Cluster) restoreNewest(dir string, prune bool) (m *snapshot.Manifest, chain []*snapshot.Manifest, err error) {
	seqs, err := snapshot.List(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(seqs) == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
	}
	load := func(seq uint64) (*snapshot.Manifest, error) { return snapshot.Load(dir, seq) }
	for i := len(seqs) - 1; i >= 0; i-- {
		if m, err = load(seqs[i]); err == nil {
			if chain, err = loadChain(m, load); err == nil {
				if err = cl.restoreChain(chain, readChain(dir, chain), true); err == nil {
					return m, chain, nil
				}
			}
		}
		if !errors.Is(err, ErrSnapshotCorrupt) {
			return nil, nil, err
		}
		if prune && i > 0 {
			snapshot.Remove(dir, seqs[i])
		}
	}
	return nil, nil, err
}

// readChain is the restore fetch of a chain on disk under dir: one rank's
// verified blobs of it, base first.
func readChain(dir string, chain []*snapshot.Manifest) func(rank int) ([][]byte, error) {
	return func(rank int) (blobs [][]byte, err error) {
		blobs = make([][]byte, len(chain))
		for i, m := range chain {
			if blobs[i], err = snapshot.ReadRank(dir, m, rank); err != nil {
				return nil, err
			}
		}
		return blobs, nil
	}
}

// restoreChain installs one validated chain (base manifest first, deltas in
// application order, the terminal last) through the restore op, in one
// exclusive epoch; nothing replaces the resident state unless every rank
// decoded its whole chain. fetch returns one rank's verified blobs of the
// chain, base first — disk for a restore, the primary's HTTP surface for a
// follower bootstrap. track enables dirty-row tracking for clusters that
// will write delta snapshots of their own (followers don't). Any failure
// that is not a lost worker or a degraded world means the chain cannot be
// trusted and surfaces as ErrSnapshotCorrupt, whichever process detected it.
func (cl *Cluster) restoreChain(chain []*snapshot.Manifest, fetch func(rank int) ([][]byte, error), track bool) error {
	term := chain[len(chain)-1]
	if term.Ranks != cl.ranks {
		return fmt.Errorf("tc2d: snapshot %d is of a %d-rank world, this cluster runs %d ranks: %w",
			term.AppliedSeq, term.Ranks, cl.ranks, ErrSnapshotCorrupt)
	}
	_, err := cl.run(opRestore, &wireRestore{Track: track, fetch: fetch})
	switch {
	case err == nil, errors.Is(err, ErrWorkerLost), errors.Is(err, ErrDegraded), errors.Is(err, ErrSnapshotCorrupt):
		return err
	}
	return fmt.Errorf("%w: restoring snapshot %d: %v", ErrSnapshotCorrupt, term.AppliedSeq, err)
}

// replayWAL re-applies every WAL record after seq through the apply op,
// handing each epoch's result to each. The records were committed once, so
// the replay only fails on damage or on an engine that cannot run epochs.
func (cl *Cluster) replayWAL(dir string, after uint64, each func(*delta.Result)) (last, newestBase uint64, haveSegments bool, err error) {
	return snapshot.Replay(dir, after, func(seq uint64, payload []byte) error {
		batch, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		res, err := cl.applyEpoch(batch)
		if err != nil {
			return fmt.Errorf("tc2d: WAL replay of batch %d: %w", seq, err)
		}
		each(res)
		return nil
	})
}

// loadChain resolves the restore chain of a terminal manifest: the base
// snapshot first, then every delta in application order, ending at the
// terminal. A base terminal is a chain of one. load reads one manifest —
// from disk for a restore, from the primary for a follower bootstrap. A
// missing, unreadable or inconsistent parent makes the whole terminal
// corrupt — the caller falls back to an older snapshot.
func loadChain(m *snapshot.Manifest, load func(seq uint64) (*snapshot.Manifest, error)) ([]*snapshot.Manifest, error) {
	chain := []*snapshot.Manifest{m}
	for chain[0].IsDelta() {
		if len(chain) > snapshotChainLimit+1 {
			return nil, fmt.Errorf("tc2d: snapshot %d has a delta chain longer than %d: %w",
				m.AppliedSeq, snapshotChainLimit, ErrSnapshotCorrupt)
		}
		parent, err := load(chain[0].ParentSeq)
		if err != nil {
			return nil, fmt.Errorf("tc2d: snapshot %d needs parent %d: %w",
				chain[0].AppliedSeq, chain[0].ParentSeq, err)
		}
		if parent.Ranks != m.Ranks {
			return nil, fmt.Errorf("tc2d: snapshot %d and its parent %d disagree on the world size: %w",
				chain[0].AppliedSeq, parent.AppliedSeq, ErrSnapshotCorrupt)
		}
		chain = append([]*snapshot.Manifest{parent}, chain...)
	}
	return chain, nil
}
