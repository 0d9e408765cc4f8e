// Command tcworker is a standalone rank-host process for a multi-process
// tc2d deployment: it dials a coordinator (tcd -coordinator, or any process
// that called tc2d.NewClusterCoordinator), claims one or more ranks of the
// SPMD world, builds a TCP mesh to its peer workers, and then executes the
// coordinator's epochs — graph build, counting queries, update batches,
// rebuilds, snapshot encoding, restores — against its resident per-rank
// state.
//
// Workers hold no durable state of their own: the coordinator owns the
// snapshot chain and WAL. A killed worker can therefore simply be restarted
// (or replaced on another machine); on rejoin the coordinator replays the
// durable state to every worker and the cluster resumes exactly where its
// last acknowledged write left it.
//
// Usage:
//
//	tcworker -coordinator 10.0.0.1:7271                 # host 1 rank
//	tcworker -coordinator 10.0.0.1:7271 -ranks 4        # host 4 ranks
//	tcworker -coordinator host:7271 -listen 10.0.0.2:0  # reachable mesh addr
//	tcworker -coordinator host:7271 -reconnect          # rejoin after failures
//	tcworker -coordinator host:7271 -addr :7272         # own /metrics+/healthz
//
// The process exits 0 on SIGINT/SIGTERM (a graceful leave: the coordinator
// frees the ranks immediately) and on coordinator shutdown; with -reconnect
// it instead keeps redialing with backoff, so a worker fleet survives
// coordinator restarts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"tc2d"
	"tc2d/internal/obs"
)

func main() {
	var (
		coord     = flag.String("coordinator", "", "coordinator address to join (required), e.g. 10.0.0.1:7271")
		ranks     = flag.Int("ranks", 1, "how many ranks this process hosts (a contiguous span)")
		listen    = flag.String("listen", "127.0.0.1:0", "peer-mesh listen address; bind an address other workers can reach in multi-host deployments")
		slots     = flag.Int("slots", 0, "compute slots: bounds how many local ranks run between messages (0 = GOMAXPROCS)")
		addr      = flag.String("addr", "", "optional HTTP address serving this worker's /metrics and /healthz (empty = none)")
		reconnect = flag.Bool("reconnect", false, "redial the coordinator with backoff after failures instead of exiting")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	slog.SetDefault(logger)
	if *coord == "" {
		logger.Error("missing required -coordinator address")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	var ready atomic.Bool
	if *addr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			if !ready.Load() {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(`{"status":"joining"}`))
				return
			}
			w.Write([]byte(`{"status":"ok"}`))
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.Expose(w)
		})
		go func() {
			logger.Info("worker HTTP up", "addr", *addr)
			if err := http.ListenAndServe(*addr, mux); err != nil {
				logger.Error("worker HTTP listen failed", "err", err)
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		logger.Info("signal received, leaving the world gracefully")
		cancel()
	}()

	opt := tc2d.WorkerOptions{
		Coordinator:  *coord,
		Ranks:        *ranks,
		Listen:       *listen,
		ComputeSlots: *slots,
		Metrics:      reg,
		OnReady: func(spans []int) {
			ready.Store(true)
			logger.Info("world ready", "ranks", spans)
		},
		Logf: func(format string, args ...any) {
			logger.Info("pworld", "msg", fmt.Sprintf(format, args...))
		},
	}

	backoff := time.Second
	for {
		err := tc2d.RunWorker(ctx, opt)
		ready.Store(false)
		if ctx.Err() != nil {
			return // graceful leave
		}
		if err == nil {
			logger.Info("coordinator shut down")
			if !*reconnect {
				return
			}
		} else {
			logger.Error("worker session ended", "err", err)
			if !*reconnect {
				os.Exit(1)
			}
		}
		logger.Info("redialing coordinator", "backoff", backoff.String())
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < 30*time.Second {
			backoff *= 2
		}
	}
}
