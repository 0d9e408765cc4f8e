// Command tcd is a triangle counting daemon: it loads a graph into a
// resident distributed cluster once at startup — preprocessing (cyclic
// redistribution, degree relabeling, 2D block construction) runs exactly one
// time — and then serves counting and statistics queries over HTTP/JSON
// against the resident per-rank blocks. This is the build-once / query-many
// execution model: every request is one SPMD epoch on the standing world,
// with zero per-request preprocessing.
//
// Requests are scheduled by the cluster's epoch scheduler: counting
// queries admit concurrently (and concurrent queries share one epoch),
// update batches coalesce into exclusive write epochs. Handlers
// hold no server-side mutex; -max-concurrent-queries optionally bounds
// admitted read queries and /stats reports queue depths and coalescing
// factors.
//
// With -persist-dir the cluster is durable: the resident state is
// snapshotted there and every committed update batch lands in a write-ahead
// log, so a restarted tcd pointed at the same directory restores the graph —
// snapshot plus WAL replay, zero re-preprocessing — instead of rebuilding it
// from -graph/-rmat (which are then only used for the very first boot).
//
// With -coordinator the daemon hosts no ranks itself: it listens on the
// given address for standalone tcworker processes (see cmd/tcworker), waits
// until every rank of the world is claimed, and then drives the same epochs
// over real TCP to the worker fleet. Queries, updates, snapshots and WAL
// replay are unchanged — only where the per-rank state lives differs. If a
// worker process dies, in-flight requests fail with 503 and the cluster is
// degraded until a replacement joins; a durable coordinator (-persist-dir)
// then restores the fleet from its snapshot chain plus WAL tail and resumes
// from exactly the last acknowledged write.
//
// The daemon is fully observable: every request is logged structurally
// (log/slog: method, path, status, duration, trace id), GET /metrics
// exposes the cluster's registry in Prometheus text format (query latency
// histograms, scheduler queue/coalescing state, kernel counters, per-rank
// epoch comm/comp time, WAL and snapshot I/O), trace=1 on /count, /update
// and /snapshot returns the phase span tree of that very request, -pprof
// mounts the runtime profiler under /debug/pprof/, and -slow-query logs
// requests over a latency threshold at warn level.
//
// Usage:
//
//	tcd -rmat 14 -ranks 9                       # RMAT graph, 9-rank cluster
//	tcd -graph edges.txt -ranks 4 -addr :7171   # edge-list file
//	tcd -rmat 13 -preset twitter -ranks 6       # SUMMA schedule (non-square)
//	tcd -rmat 12 -max-concurrent-queries 32     # bound admitted reads
//	tcd -rmat 12 -persist-dir /var/lib/tcd      # durable: restores on boot
//	tcd -rmat 12 -pprof -slow-query 250ms       # profiling + slow-query log
//	tcd -follow http://primary:7171 -addr :7172 # read replica of a primary
//	tcd -rmat 12 -coordinator :7271             # ranks live in tcworker procs
//
// A durable tcd (one with -persist-dir) is a replication primary: it
// serves its snapshot chain and WAL under /repl/, and any number of
// followers started with -follow bootstrap from the newest snapshot and
// tail the WAL as CRC-framed batches — scaling read QPS horizontally
// while all writes keep going through the one primary. Followers serve
// /count and /transitivity with an optional per-request staleness bound
// (max_lag_seq=N caps committed-but-unapplied batches, max_lag_ms=T caps
// wall-clock staleness; violations answer 503 + Retry-After), answer
// writes with 421 + the primary's URL, report "catching_up" on /healthz
// until converged, and survive primary restarts and snapshot compaction
// (re-bootstrapping without dropping in-flight reads).
//
// Endpoints:
//
//	GET  /count        — triangle count under the full kernel (trace=1
//	                     additionally returns the span tree of this query —
//	                     admission, epoch, per-rank compute, each
//	                     Cannon/SUMMA step split into shift vs kernel time;
//	                     the paper's §7.3 ablation is tcpaper -exp ablation)
//	GET  /transitivity — global clustering coefficient
//	POST /update       — apply a batch of edge and vertex mutations:
//	                     {"updates":[{"u":1,"v":2,"op":"insert"},
//	                     {"op":"add_vertices","count":3},
//	                     {"op":"remove_vertex","u":7}, ...]};
//	                     counts are maintained incrementally (delta
//	                     counting), no preprocessing re-runs. The vertex
//	                     space is elastic: edges naming ids beyond the
//	                     current space grow the graph; impossible ids
//	                     (negative, removal of a nonexistent vertex,
//	                     growth beyond -max-vertices) return 400 with
//	                     {"code":"vertex_range"}; a body over 64 MiB
//	                     returns 413. trace=1 returns the write-path span
//	                     tree (queue wait, base count, write epoch, WAL
//	                     append, rebuild)
//	POST /snapshot     — persist the current state now (requires
//	                     -persist-dir; also happens automatically as the
//	                     WAL grows); returns the snapshot seq/path/bytes
//	                     plus its kind ("base" or a churn-proportional
//	                     "delta" chained off the last base) and chain
//	                     length; trace=1 returns the encode/commit/rotate
//	                     spans
//	GET  /stats        — graph, cluster, service and durability statistics
//	GET  /metrics      — the cluster's observability registry in Prometheus
//	                     text exposition format v0.0.4
//	GET  /healthz      — liveness/readiness probe; returns 503 once
//	                     shutdown has begun so load balancers drain first
//	GET  /debug/pprof/ — runtime profiles (only with -pprof)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"tc2d"
	"tc2d/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":7171", "HTTP listen address")
		ranks    = flag.Int("ranks", 0, "SPMD ranks of the resident cluster (0 = the snapshot's rank count on restore, else 4)")
		path     = flag.String("graph", "", "edge-list file to load (overrides -rmat)")
		scale    = flag.Int("rmat", 12, "RMAT scale when no -graph is given (2^scale vertices)")
		ef       = flag.Int("ef", 16, "RMAT edge factor")
		seed     = flag.Uint64("seed", 42, "RMAT seed")
		preset   = flag.String("preset", "g500", "RMAT preset: g500, twitter, friendster")
		slots    = flag.Int("slots", 0, "compute slots: bounds how many ranks, each one goroutine, run between messages (0 = GOMAXPROCS)")
		drain    = flag.Duration("drain", time.Second, "grace period after /healthz flips to 503 before the listener closes")
		maxQ     = flag.Int("max-concurrent-queries", 0, "cap on concurrently admitted read queries (0 = unlimited)")
		maxV     = flag.Int64("max-vertices", 1<<26, "cap on the elastic vertex space (0 = unbounded)")
		pdir     = flag.String("persist-dir", "", "durability directory: snapshot/WAL on write, restore on boot (empty = not durable)")
		follow   = flag.String("follow", "", "run as a read-only replica of the primary tcd at this URL (bootstraps from its snapshots, tails its WAL)")
		coord    = flag.String("coordinator", "", "run as a multi-process coordinator: host no ranks, accept tcworker processes on this address (e.g. :7271)")
		wwait    = flag.Duration("worker-wait", time.Minute, "how long a booting coordinator waits for workers to cover every rank")
		noSync   = flag.Bool("no-wal-sync", false, "skip the per-commit WAL fsync (crash-safe but not power-loss-safe)")
		usePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slowQ    = flag.Duration("slow-query", 0, "log requests slower than this at warn level (0 = disabled)")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	slog.SetDefault(logger)

	opt := tc2d.Options{Ranks: *ranks, ComputeSlots: *slots, MaxVertices: *maxV, NoWALSync: *noSync}

	start := time.Now()
	var (
		cluster  *tc2d.Cluster
		follower *tc2d.Follower
		desc     string
		err      error
	)
	var copt *tc2d.CoordinatorOptions
	if *coord != "" {
		// Coordinator mode: ranks live in tcworker processes that dial the
		// -coordinator address. The resident state is theirs; this process
		// owns scheduling, durability and the HTTP surface.
		if *follow != "" {
			logger.Error("startup failed", "err", errors.New("-coordinator and -follow are mutually exclusive: a coordinator drives workers, a follower replicates a primary"))
			os.Exit(1)
		}
		copt = &tc2d.CoordinatorOptions{
			Listen:     *coord,
			WorkerWait: *wwait,
			OnListen: func(a string) {
				logger.Info("waiting for workers", "coordinator", a, "worker_wait", wwait.String())
			},
			Logf: func(format string, args ...any) {
				logger.Info("pworld", "msg", fmt.Sprintf(format, args...))
			},
		}
	}
	if *follow != "" {
		// Follower mode: the resident state is a replica of the primary's —
		// bootstrapped from its snapshot chain, kept current by tailing its
		// WAL. Local durability is the primary's job.
		if *pdir != "" {
			logger.Error("startup failed", "err", errors.New("-follow and -persist-dir are mutually exclusive: a follower's durable state is the primary's"))
			os.Exit(1)
		}
		follower, err = tc2d.OpenFollower(*follow, opt)
		if err == nil {
			cluster = follower.Cluster()
			desc = "follower of " + *follow
		}
	} else {
		cluster, desc, err = openOrBuildCluster(*pdir, *path, *preset, *scale, *ef, *seed, opt, copt)
	}
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	closeAll := func() error {
		if follower != nil {
			return follower.Close()
		}
		return cluster.Close()
	}
	defer closeAll()
	info := cluster.Info()
	role := "primary"
	if follower != nil {
		role = "follower"
	}
	if copt != nil {
		role = "coordinator"
	}
	logger.Info("resident cluster up",
		"boot", time.Since(start).Round(time.Millisecond).String(),
		"source", desc, "n", info.N, "m", info.M, "role", role,
		"ranks", info.Ranks, "workers", info.Workers)

	s := newServer(cluster, desc, start, *maxQ)
	s.log = logger
	s.slowQuery = *slowQ
	s.pprof = *usePprof
	s.follower = follower
	s.primary = *follow
	s.coordinator = copt != nil
	if follower == nil && info.Persist.Enabled {
		// A durable primary serves the replication surface: followers
		// bootstrap from /repl/snapshot/... and tail /repl/wal.
		rh, rerr := cluster.ReplicationHandler()
		if rerr != nil {
			logger.Error("startup failed", "err", rerr)
			os.Exit(1)
		}
		s.repl = rh
	}
	srv := &http.Server{Addr: *addr, Handler: s.handler()}
	go func() {
		logger.Info("serving", "addr", *addr, "pprof", *usePprof)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("listen failed", "err", err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// Graceful drain, strictly ordered so no accepted work is dropped:
	// (1) healthz flips to 503 and POST /update starts answering 503 +
	// Retry-After (load balancers stop routing, writers back off), staying
	// probeable for the grace period; (2) Shutdown waits out in-flight
	// handlers — including ApplyUpdates callers already enqueued on the
	// cluster's write queue, which block until their write epoch commits —
	// so every update accepted before the signal lands; (3) only then does
	// Cluster.Close run, which itself drains anything still queued before
	// the world and sockets come down.
	s.draining.Store(true)
	logger.Info("shutting down", "healthz", 503, "drain", drain.String())
	time.Sleep(*drain)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := closeAll(); err != nil {
		logger.Warn("cluster close", "err", err)
	}
}

// newLogger builds the process logger: slog text (or JSON) on stderr.
func newLogger(jsonOut bool) *slog.Logger {
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// openOrBuildCluster is the restore-on-boot policy: with a persistence
// directory that already holds a snapshot, the cluster is restored from it
// (zero re-preprocessing; -graph/-rmat are ignored) — the rank count then
// comes from the snapshot, so a conflicting explicit -ranks fails loudly.
// Otherwise the graph source builds a fresh cluster, durable from its first
// snapshot onward when -persist-dir is set. A non-nil copt routes every
// path through the multi-process constructors: the resident state then
// lives in tcworker processes, restored over the wire on boot.
func openOrBuildCluster(pdir, path, preset string, scale, ef int, seed uint64, opt tc2d.Options, copt *tc2d.CoordinatorOptions) (*tc2d.Cluster, string, error) {
	if pdir != "" {
		var (
			cl  *tc2d.Cluster
			err error
		)
		if copt != nil {
			cl, err = tc2d.OpenClusterCoordinator(pdir, opt, *copt)
		} else {
			cl, err = tc2d.OpenCluster(pdir, opt)
		}
		if err == nil {
			info := cl.Info()
			desc := fmt.Sprintf("restored from %s (snapshot seq %d, %d WAL batches replayed)",
				pdir, info.Persist.LastSnapshotSeq, info.Persist.ReplayedBatches)
			return cl, desc, nil
		}
		if !errors.Is(err, tc2d.ErrNoSnapshot) {
			return nil, "", fmt.Errorf("restore from %s: %w", pdir, err)
		}
		opt.PersistDir = pdir
	}
	if opt.Ranks == 0 {
		opt.Ranks = 4
	}
	return buildCluster(path, preset, scale, ef, seed, opt, copt)
}

func buildCluster(path, preset string, scale, ef int, seed uint64, opt tc2d.Options, copt *tc2d.CoordinatorOptions) (*tc2d.Cluster, string, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := tc2d.ReadEdgeList(f, -1)
		if err != nil {
			return nil, "", fmt.Errorf("read %s: %w", path, err)
		}
		var cl *tc2d.Cluster
		if copt != nil {
			cl, err = tc2d.NewClusterCoordinator(g, opt, *copt)
		} else {
			cl, err = tc2d.NewCluster(g, opt)
		}
		return cl, path, err
	}
	var params tc2d.RMATParams
	switch preset {
	case "g500":
		params = tc2d.G500
	case "twitter":
		params = tc2d.Twitterish
	case "friendster":
		params = tc2d.Friendsterish
	default:
		return nil, "", fmt.Errorf("unknown preset %q", preset)
	}
	desc := fmt.Sprintf("rmat-%s s=%d ef=%d seed=%d", preset, scale, ef, seed)
	var (
		cl  *tc2d.Cluster
		err error
	)
	if copt != nil {
		cl, err = tc2d.NewClusterCoordinatorRMAT(params, scale, ef, seed, opt, *copt)
	} else {
		cl, err = tc2d.NewClusterRMAT(params, scale, ef, seed, opt)
	}
	return cl, desc, err
}

// server carries the resident cluster and service counters. Handlers do
// not serialize on any server-side mutex: the cluster's epoch scheduler
// admits queries concurrently, and querySem (when -max-concurrent-queries
// is set) only bounds how many are admitted at once.
type server struct {
	cluster  *tc2d.Cluster
	desc     string
	start    time.Time
	requests atomic.Int64
	errors   atomic.Int64
	draining atomic.Bool

	follower    *tc2d.Follower // non-nil in -follow mode: bounded reads, no writes
	primary     string         // the -follow URL, echoed on write redirects
	repl        http.Handler   // non-nil on a durable primary: the /repl/ surface
	coordinator bool           // -coordinator mode: ranks live in tcworker processes

	log       *slog.Logger
	slowQuery time.Duration // warn-log requests at/over this; 0 = off
	pprof     bool

	querySem     chan struct{} // nil = unlimited
	readInflight atomic.Int64
	readPeak     atomic.Int64
}

func newServer(cl *tc2d.Cluster, desc string, start time.Time, maxQueries int) *server {
	s := &server{cluster: cl, desc: desc, start: start, log: slog.Default()}
	if maxQueries > 0 {
		s.querySem = make(chan struct{}, maxQueries)
	}
	return s
}

// admitQuery bounds concurrent read queries and tracks queue-depth stats.
// The returned release must be called when the query completes.
func (s *server) admitQuery() (release func()) {
	if s.querySem != nil {
		s.querySem <- struct{}{}
	}
	n := s.readInflight.Add(1)
	for {
		peak := s.readPeak.Load()
		if n <= peak || s.readPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	return func() {
		s.readInflight.Add(-1)
		if s.querySem != nil {
			<-s.querySem
		}
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /count", s.handleCount)
	mux.HandleFunc("GET /transitivity", s.handleTransitivity)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.repl != nil {
		mux.Handle("GET /repl/", s.repl)
	}
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.logRequests(mux)
}

// statusWriter records the status code a handler wrote so the request log
// can report it; handlers that never call WriteHeader implied 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// logRequests is the request middleware: every request gets a trace id
// (echoed in the X-Trace-Id response header, so a slow-query log line is
// joinable with the client's view of the request) and a structured log
// line with method, path, status and duration. Requests at or over the
// -slow-query threshold are logged again at warn level. Probe and scrape
// endpoints are exempt from info-level logging to keep the log readable
// under 1-second scrape intervals.
func (s *server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.NewTraceID()
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(t0)
		quiet := r.URL.Path == "/healthz" || r.URL.Path == "/metrics"
		if !quiet || sw.status >= http.StatusBadRequest {
			s.log.Info("request",
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status, "duration_ms", durMillis(dur),
				"trace_id", id)
		}
		if s.slowQuery > 0 && dur >= s.slowQuery && !quiet {
			s.log.Warn("slow query",
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status, "duration_ms", durMillis(dur),
				"threshold_ms", durMillis(s.slowQuery),
				"trace_id", id)
		}
	})
}

// durMillis renders a duration as fractional milliseconds for log fields.
func durMillis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	// A follower distinguishes catch-up from ready: until it has observed
	// itself fully caught up since its last bootstrap it answers 503 with
	// status "catching_up", so readiness probes keep it out of rotation
	// while it replays — distinctly from "draining" (shutdown) and "ok".
	if s.follower != nil {
		info := s.follower.Info()
		body := map[string]any{
			"status":      "ok",
			"role":        "follower",
			"state":       info.State,
			"applied_seq": info.AppliedSeq,
			"primary_seq": info.PrimarySeq,
			"lag_seq":     info.LagSeq,
		}
		if info.State != "ready" {
			body["status"] = "catching_up"
			w.Header().Set("Retry-After", "1")
			s.writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		s.writeJSON(w, http.StatusOK, body)
		return
	}
	// A degraded coordinator (a worker process is gone and the world is not
	// yet reassembled) stays alive but cannot serve: 503 with status
	// "degraded" keeps it out of rotation until a replacement worker joins
	// and recovery completes.
	if s.coordinator {
		if info := s.cluster.Info(); info.Degraded {
			w.Header().Set("Retry-After", "1")
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":  "degraded",
				"role":    "coordinator",
				"workers": info.Workers,
			})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the cluster's registry in Prometheus text format.
// Info() is polled first so the resident-graph gauges are current at
// scrape time.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.cluster.Info()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.cluster.Metrics().Expose(w); err != nil {
		s.log.Warn("metrics exposition", "err", err)
	}
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	b, _ := strconv.ParseBool(v)
	return b
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) fail(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	s.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

func (s *server) handleCount(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	release := s.admitQuery()
	defer release()
	var q tc2d.QueryOptions
	t0 := time.Now()
	var (
		res *tc2d.Result
		tr  *obs.Trace
		err error
	)
	if s.follower != nil {
		bound, berr := readBound(r)
		if berr != nil {
			s.errors.Add(1)
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": berr.Error()})
			return
		}
		if boolParam(r, "trace") {
			res, tr, err = s.follower.CountTraced(q, bound)
		} else {
			res, err = s.follower.Count(q, bound)
		}
	} else if boolParam(r, "trace") {
		res, tr, err = s.cluster.CountTraced(q)
	} else {
		res, err = s.cluster.Count(q)
	}
	if err != nil {
		if s.staleRead(w, err) || s.degraded(w, err) {
			return
		}
		s.fail(w, err)
		return
	}
	body := map[string]any{
		"triangles": res.Triangles,
		"n":         res.N,
		"m":         res.M,
		"probes":    res.Probes,
		"map_tasks": res.MapTasks,
		"wall_ms":   durMillis(time.Since(t0)),
	}
	if tr != nil {
		body["trace"] = tr.Span()
	}
	s.writeJSON(w, http.StatusOK, body)
}

// maxUpdateBody caps the POST /update body: a larger one is answered 413
// before any of it is decoded into a batch.
const maxUpdateBody = 64 << 20

// updateRequest is the POST /update body.
type updateRequest struct {
	Updates []struct {
		U     int32  `json:"u"`
		V     int32  `json:"v"`
		Count int32  `json:"count"`
		Op    string `json:"op"`
	} `json:"updates"`
}

// misdirectWrite answers a write sent to a follower: 421 Misdirected
// Request with the primary's URL, so clients re-aim instead of retrying.
func (s *server) misdirectWrite(w http.ResponseWriter, path string) {
	s.errors.Add(1)
	w.Header().Set("Location", s.primary+path)
	s.writeJSON(w, http.StatusMisdirectedRequest, map[string]string{
		"error":   "this tcd is a read-only follower: apply writes at the primary",
		"primary": s.primary,
	})
}

// readBound parses the per-request staleness bound of a follower read:
// max_lag_seq caps committed-but-unapplied batches (0 = exactly caught
// up), max_lag_ms caps wall-clock staleness. Absent params = unbounded.
// A max_lag_ms that is not finite or overflows a Duration is refused: its
// conversion would go negative, which the follower reads as unbounded.
func readBound(r *http.Request) (tc2d.ReadBound, error) {
	b := tc2d.Unbounded
	if v := r.URL.Query().Get("max_lag_seq"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return b, fmt.Errorf("max_lag_seq=%q must be a non-negative integer", v)
		}
		b.MaxLagSeq = n
	}
	if v := r.URL.Query().Get("max_lag_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || !(ms > 0 && ms*float64(time.Millisecond) < math.MaxInt64) {
			return b, fmt.Errorf("max_lag_ms=%q must be a positive number of milliseconds below 2^63 ns", v)
		}
		b.MaxLag = time.Duration(ms * float64(time.Millisecond))
	}
	return b, nil
}

// degraded maps worker-fleet failures to 503 + Retry-After: the request hit
// a coordinator whose world lost a worker process (ErrWorkerLost if the loss
// interrupted this very epoch, ErrDegraded if it was refused upfront). The
// operation did not commit; the client should retry once a replacement
// worker has joined and recovery finished.
func (s *server) degraded(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, tc2d.ErrDegraded) && !errors.Is(err, tc2d.ErrWorkerLost) {
		return false
	}
	s.errors.Add(1)
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error": err.Error(),
		"code":  "degraded",
	})
	return true
}

// staleRead maps ErrStaleRead to 503 + Retry-After: the read was refused
// because the follower could not prove itself within the requested bound —
// the client should retry here shortly or relax the bound.
func (s *server) staleRead(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, tc2d.ErrStaleRead) {
		return false
	}
	s.errors.Add(1)
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error": err.Error(),
		"code":  "stale_read",
	})
	return true
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.follower != nil {
		s.misdirectWrite(w, "/update")
		return
	}
	// Once shutdown has begun, the write queue stops accepting: answer 503
	// with Retry-After so well-behaved writers resubmit elsewhere, while
	// updates accepted before the drain keep committing.
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining: write queue is closed to new updates"})
		return
	}
	// A declared length over the cap is refused unread; an undeclared one is
	// cut off by the reader once it passes the cap.
	var req updateRequest
	var err error
	if r.ContentLength > maxUpdateBody {
		err = &http.MaxBytesError{Limit: maxUpdateBody}
	} else {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody)).Decode(&req)
	}
	if err != nil {
		s.errors.Add(1)
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			s.writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
				"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	batch := make([]tc2d.EdgeUpdate, 0, len(req.Updates))
	for i, u := range req.Updates {
		upd := tc2d.EdgeUpdate{U: u.U, V: u.V}
		switch u.Op {
		case "insert", "":
			upd.Op = tc2d.UpdateInsert
		case "delete":
			upd.Op = tc2d.UpdateDelete
		case "add_vertices":
			upd = tc2d.EdgeUpdate{U: u.Count, Op: tc2d.UpdateAddVertices}
		case "remove_vertex":
			upd = tc2d.EdgeUpdate{U: u.U, Op: tc2d.UpdateRemoveVertex}
		default:
			s.errors.Add(1)
			s.writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("update %d: unknown op %q (want insert, delete, add_vertices or remove_vertex)", i, u.Op)})
			return
		}
		batch = append(batch, upd)
	}
	t0 := time.Now()
	var (
		res *tc2d.UpdateResult
		tr  *obs.Trace
	)
	if boolParam(r, "trace") {
		res, tr, err = s.cluster.ApplyUpdatesTraced(batch)
	} else {
		res, err = s.cluster.ApplyUpdates(batch)
	}
	if err != nil {
		if s.degraded(w, err) {
			return
		}
		s.errors.Add(1)
		// A typed vertex-range rejection is the caller's fault, with a
		// structured body so clients can tell it from a malformed batch.
		if errors.Is(err, tc2d.ErrVertexRange) {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": err.Error(),
				"code":  "vertex_range",
			})
			return
		}
		s.writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	body := map[string]any{
		"inserted":         res.Inserted,
		"deleted":          res.Deleted,
		"skipped_existing": res.SkippedExisting,
		"skipped_missing":  res.SkippedMissing,
		"skipped_loops":    res.SkippedLoops,
		"added_vertices":   res.AddedVertices,
		"removed_vertices": res.RemovedVertices,
		"vertex_base":      res.VertexBase,
		"n":                res.GrownTo,
		"delta_triangles":  res.DeltaTriangles,
		"triangles":        res.Triangles,
		"m":                res.M,
		"wedges":           res.Wedges,
		"rebuilt":          res.Rebuilt,
		"coalesced":        res.Coalesced,
		"wall_ms":          durMillis(time.Since(t0)),
	}
	if tr != nil {
		body["trace"] = tr.Span()
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.follower != nil {
		s.misdirectWrite(w, "/snapshot")
		return
	}
	t0 := time.Now()
	var (
		info *tc2d.SnapshotInfo
		tr   *obs.Trace
		err  error
	)
	if boolParam(r, "trace") {
		info, tr, err = s.cluster.SnapshotTraced()
	} else {
		info, err = s.cluster.Snapshot()
	}
	if err != nil {
		if s.degraded(w, err) {
			return
		}
		s.errors.Add(1)
		status := http.StatusInternalServerError
		if !s.cluster.Info().Persist.Enabled {
			status = http.StatusConflict // no -persist-dir: the request can never succeed
		}
		s.writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	body := map[string]any{
		"seq":       info.Seq,
		"path":      info.Path,
		"bytes":     info.Bytes,
		"triangles": info.Triangles,
		"kind":      info.Kind,
		"chain_len": info.ChainLen,
		"wall_ms":   durMillis(time.Since(t0)),
	}
	if tr != nil {
		body["trace"] = tr.Span()
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *server) handleTransitivity(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	release := s.admitQuery()
	defer release()
	t0 := time.Now()
	var (
		tr  float64
		err error
	)
	if s.follower != nil {
		bound, berr := readBound(r)
		if berr != nil {
			s.errors.Add(1)
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": berr.Error()})
			return
		}
		tr, err = s.follower.Transitivity(bound)
	} else {
		tr, err = s.cluster.Transitivity()
	}
	if err != nil {
		if s.staleRead(w, err) || s.degraded(w, err) {
			return
		}
		s.fail(w, err)
		return
	}
	info := s.cluster.Info()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"transitivity": tr,
		"wedges":       info.Wedges,
		"wall_ms":      durMillis(time.Since(t0)),
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	info := s.cluster.Info()
	repl := map[string]any{"role": "primary", "serving": s.repl != nil}
	if s.follower != nil {
		fi := s.follower.Info()
		repl = map[string]any{
			"role":            "follower",
			"primary":         fi.PrimaryURL,
			"state":           fi.State,
			"applied_seq":     fi.AppliedSeq,
			"primary_seq":     fi.PrimarySeq,
			"lag_seq":         fi.LagSeq,
			"caught_up":       fi.CaughtUp,
			"lag_ms":          fi.LagMS,
			"bootstraps":      fi.Bootstraps,
			"bootstrap_bytes": fi.BootstrapBytes,
			"applied_batches": fi.AppliedBatches,
			"wal_bytes":       fi.ReceivedBytes,
			"frames":          fi.Frames,
			"last_error":      fi.LastError,
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"replication": repl,
		"graph": map[string]any{
			"source":            s.desc,
			"n":                 info.N,
			"base_n":            info.BaseN,
			"overflow_n":        info.OverflowN,
			"overflow_fraction": info.OverflowFraction,
			"space_version":     info.SpaceVersion,
			"m":                 info.M,
			"wedges":            info.Wedges,
		},
		"workers": map[string]any{
			"coordinator": s.coordinator,
			"connected":   info.Workers,
			"degraded":    info.Degraded,
		},
		"cluster": map[string]any{
			"ranks":                info.Ranks,
			"queries":              info.Queries,
			"updates":              info.Updates,
			"rebuilds":             info.Rebuilds,
			"incremental_rebuilds": info.IncrementalRebuilds,
			"pre_ops":              info.PreOps,
		},
		"scheduler": map[string]any{
			"read_inflight":          s.readInflight.Load(),
			"read_inflight_peak":     s.readPeak.Load(),
			"max_concurrent_queries": cap(s.querySem),
			"read_epochs":            info.ReadEpochs,
			"read_coalescing":        obs.Ratio(info.Queries, info.ReadEpochs),
			"write_queue_depth":      info.QueueDepth,
			"write_epochs":           info.WriteEpochs,
			"coalesced_batches":      info.CoalescedBatches,
			"write_coalescing":       obs.Ratio(info.CoalescedBatches, info.WriteEpochs),
		},
		"kernel": map[string]any{
			"map_tasks": info.MapTasks,
		},
		"persist": map[string]any{
			"enabled":           info.Persist.Enabled,
			"dir":               info.Persist.Dir,
			"wal_seq":           info.Persist.WALSeq,
			"wal_records":       info.Persist.WALRecords,
			"wal_bytes":         info.Persist.WALBytes,
			"replayed_batches":  info.Persist.ReplayedBatches,
			"snapshots":         info.Persist.Snapshots,
			"last_snapshot_seq": info.Persist.LastSnapshotSeq,
			"delta_snapshots":   info.Persist.DeltaSnapshots,
			"base_snapshot_seq": info.Persist.BaseSnapshotSeq,
			"chain_len":         info.Persist.ChainLen,
			"churn_since_base":  info.Persist.ChurnSinceBase,
		},
		"service": map[string]any{
			"requests": s.requests.Load(),
			"errors":   s.errors.Load(),
			"uptime_s": time.Since(s.start).Seconds(),
		},
	})
}
