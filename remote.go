package tc2d

// Multi-process deployment, coordinator side.
//
// A coordinator cluster is an ordinary *Cluster whose epochs run on worker
// PROCESSES instead of in-process goroutines: NewClusterCoordinator listens
// for tcworker daemons (internal/pworld handles the join/heartbeat/mesh
// protocol), ships the graph to them once, and from then on every query,
// update batch, rebuild and snapshot is one coordinated epoch over the
// process-spanning mpi world the workers built among themselves. The
// coordinator itself hosts no ranks and carries no rank traffic — it holds
// the cluster-level state (scheduler, counters, WAL, snapshots) and a cached
// copy of the graph metadata piggybacked on every epoch reply.
//
// Failure model: when any worker dies (socket error, heartbeat timeout,
// graceful leave) the in-flight epochs fail with ErrWorkerLost and the
// cluster degrades — operations fail fast with ErrDegraded. The coordinator's
// own counters (triangle total, applied edges, WAL) only ever advance after
// an epoch commits, so they remain the authority. Once a replacement worker
// joins and the mesh rebuilds, a durable cluster (Options.PersistDir)
// recovers automatically: every worker — the replacement AND the survivors,
// whose in-memory state an aborted epoch may have left inconsistent —
// restores from the newest snapshot chain plus a WAL-tail replay, exactly
// reproducing the acknowledged state. A cluster without PersistDir stays
// degraded permanently (there is no durable state to restore from) and
// should be closed.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tc2d/internal/delta"
	"tc2d/internal/pworld"
	"tc2d/internal/snapshot"
)

// ErrWorkerLost marks an operation that failed because a worker process died
// while the epoch was in flight. The epoch's work is void: no state it
// touched on any worker survives (recovery restores the workers from the
// last durable state). Test with errors.Is.
var ErrWorkerLost = errors.New("tc2d: worker process lost")

// ErrDegraded marks an operation refused because the coordinator's world is
// missing workers: one was lost and no replacement has joined yet, or a
// replacement joined but recovery has not finished. Durable clusters clear
// the condition automatically when recovery completes; clusters without
// Options.PersistDir stay degraded forever once a worker is lost. Test with
// errors.Is.
var ErrDegraded = errors.New("tc2d: cluster is degraded, waiting for workers")

// CoordinatorOptions parameterizes the worker-facing half of a coordinator
// cluster; Options keeps parameterizing everything else (world size via
// Ranks, PersistDir). The zero value listens on an
// ephemeral loopback port and waits up to a minute for workers.
type CoordinatorOptions struct {
	// Listen is the TCP address workers dial. Default "127.0.0.1:0"; the
	// resolved address is available as Cluster.CoordinatorAddr. For
	// multi-host deployments bind a reachable interface.
	Listen string
	// WorkerWait bounds how long NewClusterCoordinator (and
	// OpenClusterCoordinator) blocks waiting for enough workers to claim
	// every rank. Default 60s.
	WorkerWait time.Duration
	// HeartbeatInterval is how often workers are pinged (default 1s);
	// HeartbeatTimeout evicts a worker whose last pong is older than this
	// (default 5s). The timeout must comfortably exceed the longest
	// exclusive epoch a deployment expects.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout evicts a worker silent for this long. Default 5s.
	HeartbeatTimeout time.Duration
	// OnListen, when non-nil, is called with the resolved listen address
	// once the listener is bound, BEFORE the constructor blocks waiting for
	// workers — the hook that lets a caller using an ephemeral port (":0")
	// launch or direct its workers.
	OnListen func(addr string)
	// Logf, when non-nil, receives membership protocol log lines.
	Logf func(format string, args ...any)
}

// remoteBackend is the coordinator-side engine of a Cluster: its run ships an
// op's name and wire-form args through the pworld.Coordinator to the worker
// processes hosting the ranks, whose dispatch (worker.go) runs the same op
// table entry the in-process engine would. It also tracks the degraded state
// across worker losses and recoveries.
type remoteBackend struct {
	coord *pworld.Coordinator
	addr  string
	ranks int

	degraded   atomic.Bool
	recovering atomic.Bool
	connected  atomic.Int64
	// restoring lets run through while degraded: restoring the workers IS
	// the way out of that state. Guarded by the cluster's sched.gate — set
	// only by restoreWorkersLocked, which holds it exclusively.
	restoring bool

	readyOnce sync.Once
	readyCh   chan struct{}

	// cl is the cluster this engine serves, once it is published
	// (Cluster.start); recover needs the way back.
	cl atomic.Pointer[Cluster]

	metrics *clusterMetrics
	logf    func(format string, args ...any)
}

func (rb *remoteBackend) log(format string, args ...any) {
	if rb.logf != nil {
		rb.logf(format, args...)
	}
}

// onEvent tracks membership transitions: it maintains the worker gauges,
// flips the backend degraded on a loss, and kicks recovery when the world
// reassembles.
func (rb *remoteBackend) onEvent(ev pworld.Event) {
	switch ev.Kind {
	case pworld.EventJoined:
		n := rb.connected.Add(1)
		rb.metrics.observeWorkerJoin(n)
	case pworld.EventLost:
		n := rb.connected.Add(-1)
		rb.degraded.Store(true)
		rb.metrics.observeWorkerLoss(n, ev.Reason)
	case pworld.EventReady:
		rb.readyOnce.Do(func() { close(rb.readyCh) })
		if rb.degraded.Load() {
			go rb.recover()
		}
	}
}

// run dispatches one op to the workers as one epoch and decodes the replies.
func (rb *remoteBackend) run(name string, args any) ([]*opReply, error) {
	if rb.degraded.Load() && !rb.restoring {
		return nil, fmt.Errorf("tc2d: %s refused: %w", name, ErrDegraded)
	}
	op := ops[name]
	common, perRank, err := op.encode(args, rb.ranks)
	if err != nil {
		return nil, err
	}
	payloads, err := rb.coord.Run(op.read, name, common, perRank)
	switch {
	case errors.Is(err, pworld.ErrWorkerLost):
		return nil, fmt.Errorf("%v: %w", err, ErrWorkerLost)
	case errors.Is(err, pworld.ErrNotReady):
		return nil, fmt.Errorf("tc2d: world missing workers: %w", ErrDegraded)
	case err != nil:
		return nil, err
	}
	replies := make([]*opReply, rb.ranks)
	for r, b := range payloads {
		if r < 0 || r >= rb.ranks || len(b) == 0 {
			continue
		}
		replies[r] = new(opReply)
		if err := gobDecode(b, replies[r]); err != nil {
			return nil, fmt.Errorf("tc2d: %s reply of rank %d: %w", name, r, err)
		}
	}
	return replies, nil
}

func (rb *remoteBackend) close() error { return rb.coord.Close() }

// recover restores a reassembled world from the durable state: every worker
// installs the newest snapshot chain and replays the WAL tail, after which
// the cluster leaves the degraded state. Runs once per reassembly (Ready
// events during an active recovery are ignored); a failure — including
// another worker loss mid-recovery — leaves the cluster degraded and the
// next reassembly retries.
func (rb *remoteBackend) recover() {
	if !rb.recovering.CompareAndSwap(false, true) {
		return
	}
	defer rb.recovering.Store(false)
	cl := rb.cl.Load()
	if cl == nil {
		return // lost and reassembled during construction; the constructor fails
	}
	start := time.Now()
	cl.sched.gate.Lock()
	defer cl.sched.gate.Unlock()
	if cl.closed.Load() || !rb.degraded.Load() || !rb.coord.Ready() {
		return
	}
	if cl.persist == nil {
		rb.log("tc2d: workers rejoined but the cluster has no PersistDir — no durable state to restore, staying degraded")
		return
	}
	if err := cl.restoreWorkersLocked(); err != nil {
		rb.log("tc2d: worker recovery failed (will retry on next reassembly): %v", err)
		return
	}
	rb.degraded.Store(false)
	rb.metrics.observeWorkerRecovery(time.Since(start))
	rb.log("tc2d: workers recovered from durable state in %s", time.Since(start).Round(time.Millisecond))
}

// restoreWorkersLocked reinstalls the durable state on every worker — the
// replacement AND the survivors: newest valid snapshot chain, then the WAL
// tail. The coordinator's own counters (triangle total, applied edges, WAL
// sequence) are NOT touched — they only ever advanced after committed epochs
// and remain the authority; the replay brings the workers back to exactly
// that state. sched.gate is held exclusively.
func (cl *Cluster) restoreWorkersLocked() error {
	rb := cl.remote
	rb.restoring = true
	defer func() { rb.restoring = false }()
	dir := cl.persist.dir
	m, _, err := cl.restoreNewest(dir, false)
	if err != nil {
		return err
	}
	replayed := 0
	if _, _, _, err := cl.replayWAL(dir, m.AppliedSeq, func(*delta.Result) { replayed++ }); err != nil {
		return err
	}
	rb.log("tc2d: replayed %d WAL batches to recovered workers", replayed)
	return nil
}

// Workers reports the number of connected worker processes; 0 on ordinary
// in-process clusters.
func (cl *Cluster) Workers() int {
	if cl.remote == nil {
		return 0
	}
	return cl.remote.coord.Workers()
}

// Degraded reports whether a coordinator cluster is currently missing
// workers or mid-recovery (operations fail fast with ErrDegraded while it
// is). Always false on in-process clusters.
func (cl *Cluster) Degraded() bool {
	return cl.remote != nil && cl.remote.degraded.Load()
}

// CoordinatorAddr is the resolved worker-facing listen address of a
// coordinator cluster ("" on in-process clusters) — the address tcworker
// processes dial.
func (cl *Cluster) CoordinatorAddr() string {
	if cl.remote == nil {
		return ""
	}
	return cl.remote.addr
}

// newEngine stands up the worker-facing listener and membership protocol for
// a p-rank world and blocks until every rank is claimed and the worker mesh
// is built, or the WorkerWait deadline passes.
func (copt CoordinatorOptions) newEngine(res *resolvedOptions, p int) (engine, error) {
	if copt.Listen == "" {
		copt.Listen = "127.0.0.1:0"
	}
	if copt.WorkerWait <= 0 {
		copt.WorkerWait = 60 * time.Second
	}
	ln, err := net.Listen("tcp", copt.Listen)
	if err != nil {
		return nil, fmt.Errorf("tc2d: coordinator listen %s: %w", copt.Listen, err)
	}
	// Registered before any worker can join, so the event callbacks always
	// find resolved handles.
	res.metrics.initWorkerMetrics()
	rb := &remoteBackend{
		addr:    ln.Addr().String(),
		ranks:   p,
		readyCh: make(chan struct{}),
		metrics: res.metrics,
		logf:    copt.Logf,
	}
	rb.coord, err = pworld.NewCoordinator(ln, pworld.Config{
		World:             p,
		Format:            snapshot.FormatVersion,
		HeartbeatInterval: copt.HeartbeatInterval,
		HeartbeatTimeout:  copt.HeartbeatTimeout,
		OnEvent:           rb.onEvent,
		Logf:              copt.Logf,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	if copt.OnListen != nil {
		copt.OnListen(rb.addr)
	}
	select {
	case <-rb.readyCh:
		return rb, nil
	case <-time.After(copt.WorkerWait):
		rb.close()
		return nil, fmt.Errorf("tc2d: %d-rank world did not assemble within %s (%d workers connected, dial address %s)",
			p, copt.WorkerWait, rb.coord.Workers(), rb.addr)
	}
}

// NewClusterCoordinator builds a resident cluster whose ranks live in
// separate worker processes: it listens on copt.Listen, waits for tcworker
// processes (RunWorker) to claim all opt.Ranks ranks, ships g to them, and
// runs the preprocessing pipeline across the worker mesh. From then on the
// returned Cluster behaves like any other — Count, ApplyUpdates, Snapshot,
// replication sources — except that worker loss degrades it (see
// ErrDegraded) and, when opt.PersistDir is set, a reassembled worker set
// recovers automatically from the snapshot chain and WAL tail.
func NewClusterCoordinator(g *Graph, opt Options, copt CoordinatorOptions) (*Cluster, error) {
	return buildCluster(opt, copt.newEngine, &wireBuild{graph: g})
}

// NewClusterCoordinatorRMAT is NewClusterCoordinator for a generated RMAT
// graph: only the generator parameters travel to the workers, and every
// rank generates its own slice of the edge stream, so no process ever holds
// the full graph.
func NewClusterCoordinatorRMAT(params RMATParams, scale, edgeFactor int, seed uint64, opt Options, copt CoordinatorOptions) (*Cluster, error) {
	rm := &wireRMAT{Params: params, Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
	return buildCluster(opt, copt.newEngine, &wireBuild{RMAT: rm})
}

// OpenClusterCoordinator restores a coordinator cluster from a persistence
// directory written by a previous coordinator (or in-process) run: it waits
// for workers to claim every rank the snapshot manifest names, installs the
// newest valid snapshot chain on them, replays the WAL tail through write
// epochs, and resumes serving with the restored counters. Exactly like
// OpenCluster, a corrupt newest snapshot falls back to the previous one,
// ErrNoSnapshot means an empty directory, and an opt.Ranks conflicting with
// the manifest is an error.
func OpenClusterCoordinator(dir string, opt Options, copt CoordinatorOptions) (*Cluster, error) {
	return openCluster(dir, opt, copt.newEngine)
}
