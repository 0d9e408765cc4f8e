package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"tc2d"
	"tc2d/internal/obs"
)

const (
	ranks       = 4
	workerProcs = 2 // coord-mixed: two worker processes × two ranks
)

// system is one workload's program under test, built in the workload's
// process shape. Reads and writes go through the same public entry points a
// user of that shape calls.
type system struct {
	shape   shape
	g       *tc2d.Graph
	cl      *tc2d.Cluster  // takes the writes; nil on shapeOneshot until writeLane builds one
	fol     *tc2d.Follower // shapeReplica: takes the reads
	srv     *http.Server
	workers []*workerProc
	dir     string // PersistDir, "" when the shape is not durable

	assembleS  float64 // shapeCoord: listen → mesh ready
	bootstrapS float64 // shapeReplica: OpenFollower
}

// setup generates the workload's graph and brings the system up. Everything
// it does is what setup_s times.
func setup(w *workload, seed uint64, tmp string) (sys *system, err error) {
	g, err := genGraph(w.Graph, w.Scale, seed)
	if err != nil {
		return nil, err
	}
	sys = &system{shape: w.Shape, g: g}
	defer func() {
		if err != nil {
			sys.close()
			sys = nil
		}
	}()
	opt := tc2d.Options{Ranks: ranks}
	if w.Shape == shapeDurable || w.Shape == shapeReplica {
		if sys.dir, err = os.MkdirTemp(tmp, w.Name+"-"); err != nil {
			return sys, err
		}
		opt.PersistDir = sys.dir
	}
	switch w.Shape {
	case shapeOneshot:
	case shapeResident, shapeDurable, shapeReplica:
		if sys.cl, err = tc2d.NewCluster(g, opt); err != nil {
			return sys, err
		}
	case shapeCoord:
		if err = sys.startCoordinator(opt); err != nil {
			return sys, err
		}
	}
	if w.Shape == shapeReplica {
		err = sys.startFollower()
	}
	return sys, err
}

// startCoordinator listens, re-executes this binary twice as a worker
// process, and builds the cluster across them.
func (s *system) startCoordinator(opt tc2d.Options) error {
	var listening time.Time
	var spawnErr error
	joined := make(chan struct{}, workerProcs) // one token per "joined" log line, never more
	ready := make(chan time.Time, 1)
	copt := tc2d.CoordinatorOptions{
		WorkerWait: 30 * time.Second,
		// Workers are started one at a time, each after the coordinator has
		// admitted the one before: two joins racing each other can start the
		// mesh build twice, and a worker caught between the two generations
		// answers its first epoch with "no world built".
		OnListen: func(addr string) {
			listening = time.Now()
			for i := 0; i < workerProcs && spawnErr == nil; i++ {
				p, err := spawnWorker(addr, ranks/workerProcs)
				if err != nil {
					spawnErr = err
					return
				}
				s.workers = append(s.workers, p)
				select {
				case <-joined:
				case <-time.After(10 * time.Second):
					spawnErr = fmt.Errorf("worker %d did not join within 10s", i+1)
				}
			}
		},
		// The membership protocol announces joins and the assembled mesh
		// only in its log; those lines are the one outside view of them.
		Logf: func(format string, _ ...any) {
			switch {
			case strings.Contains(format, "joined from"):
				joined <- struct{}{}
			case strings.Contains(format, "mesh generation") && strings.HasSuffix(format, "ready"):
				select {
				case ready <- time.Now():
				default: // a rebuilt mesh after a worker loss; the first one is the set-up's
				}
			}
		},
	}
	cl, err := tc2d.NewClusterCoordinator(s.g, opt, copt)
	if err != nil {
		return errors.Join(err, spawnErr)
	}
	s.cl = cl
	s.assembleS = (<-ready).Sub(listening).Seconds()
	return nil
}

// startFollower mounts the primary's replication handler on a loopback HTTP
// server and opens one follower against it.
func (s *system) startFollower() error {
	rh, err := s.cl.ReplicationHandler()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: rh}
	go s.srv.Serve(ln) // returns once close shuts the server down
	t0 := time.Now()
	s.fol, err = tc2d.OpenFollower("http://"+ln.Addr().String(), tc2d.Options{})
	s.bootstrapS = time.Since(t0).Seconds()
	return err
}

// close tears the system down: follower, HTTP server, cluster, worker
// processes, PersistDir. It is safe on a half-built system.
func (s *system) close() error {
	var errs []error
	if s.fol != nil {
		errs = append(errs, s.fol.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.cl != nil {
		errs = append(errs, s.cl.Close())
	}
	for _, p := range s.workers {
		p.stop()
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	s.fol, s.srv, s.cl, s.workers, s.dir = nil, nil, nil, nil, ""
	return errors.Join(errs...)
}

// read answers one triangle count the way a user of this shape gets one.
func (s *system) read() (int64, error) {
	var res *tc2d.Result
	var err error
	switch {
	case s.fol != nil:
		res, err = s.fol.Count(tc2d.QueryOptions{}, tc2d.Unbounded)
	case s.cl != nil && s.shape != shapeOneshot:
		res, err = s.cl.Count(tc2d.QueryOptions{})
	default:
		res, err = tc2d.Count(s.g, tc2d.Options{Ranks: ranks})
	}
	if err != nil {
		return 0, err
	}
	return res.Triangles, nil
}

// readTraced is read through the traced entry point; the one-shot API has
// none, so shapeOneshot returns a nil trace.
func (s *system) readTraced() (int64, *obs.Trace, error) {
	var res *tc2d.Result
	var tr *obs.Trace
	var err error
	switch {
	case s.fol != nil:
		res, tr, err = s.fol.CountTraced(tc2d.QueryOptions{}, tc2d.Unbounded)
	case s.cl != nil && s.shape != shapeOneshot:
		res, tr, err = s.cl.CountTraced(tc2d.QueryOptions{})
	default:
		n, err := s.read()
		return n, nil, err
	}
	if err != nil {
		return 0, tr, err
	}
	return res.Triangles, tr, nil
}

// waitApplied blocks until the follower has applied seq (shapeReplica).
func (s *system) waitApplied(seq uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for s.fol.Info().AppliedSeq < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d, primary committed %d (%s)",
				s.fol.Info().AppliedSeq, seq, s.fol.Info().LastError)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// workerProc is one re-executed copy of this binary hosting ranks.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// spawnWorker starts `bench -worker addr`. The child holds a pipe to this
// process as stdin and leaves when it closes, so no worker outlives the
// harness however the harness ends.
func spawnWorker(addr string, nranks int) (*workerProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-worker", addr, "-worker-ranks", fmt.Sprint(nranks))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &workerProc{cmd: cmd, stdin: stdin}, nil
}

// stop asks the worker to leave, waits for it, and kills it if it lingers.
func (p *workerProc) stop() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() {
		p.cmd.Wait() // the exit status of a worker told to leave carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// runWorker is the hidden -worker mode: host ranks for the coordinator at
// addr until it shuts down or stdin closes.
func runWorker(addr string, nranks int) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		io.Copy(io.Discard, os.Stdin) // returns when the harness closes the pipe or dies
		cancel()
	}()
	return tc2d.RunWorker(ctx, tc2d.WorkerOptions{Coordinator: addr, Ranks: nranks})
}
