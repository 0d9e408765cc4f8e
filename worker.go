package tc2d

// Multi-process deployment, worker side.
//
// RunWorker turns the calling process into a rank host: it dials a
// coordinator (NewClusterCoordinator / tcd -coordinator), claims a span of
// ranks, builds the TCP mesh to its peer workers, and then executes the
// coordinator's epochs — the entries of the op table (ops.go) — against
// per-rank resident core.Prepared state. The cmd/tcworker
// daemon is a thin flag wrapper around this function.

import (
	"context"
	"errors"
	"fmt"

	"tc2d/internal/mpi"
	"tc2d/internal/obs"
	"tc2d/internal/pworld"
	"tc2d/internal/snapshot"
)

// WorkerOptions parameterizes one worker process (RunWorker).
type WorkerOptions struct {
	// Coordinator is the coordinator's worker-facing TCP address
	// (Cluster.CoordinatorAddr, or the tcd -coordinator-listen flag).
	// Required.
	Coordinator string
	// Ranks is how many ranks this process hosts (default 1). A worker's
	// ranks always form a contiguous span of the global rank space.
	Ranks int
	// Listen is the address this worker's peer-mesh listener binds
	// (default "127.0.0.1:0"). For multi-host deployments bind an address
	// the other workers can reach.
	Listen string
	// ComputeSlots bounds how many local ranks — each one goroutine — run
	// between messages, as Options.ComputeSlots does in-process; 0 defaults
	// to GOMAXPROCS.
	ComputeSlots int
	// Metrics receives this worker's kernel and transport series; expose
	// it however the host process likes. Nil means no metrics.
	Metrics *obs.Registry
	// OnReady, when non-nil, is called once with the rank span this worker
	// was assigned after the world assembles.
	OnReady func(ranks []int)
	// Logf, when non-nil, receives protocol log lines.
	Logf func(format string, args ...any)
}

// RunWorker runs one worker process attached to coordinator copt.Coordinator
// and blocks until the context is cancelled (graceful leave: the
// coordinator frees this worker's ranks immediately instead of waiting out
// a heartbeat timeout) or the coordinator shuts down; both return nil. It
// returns an error for protocol failures — unreachable coordinator,
// format-version mismatch, no free ranks.
//
// A worker holds no durable state: on restart it rejoins empty and the
// coordinator replays the snapshot chain and WAL tail to it. One process
// may host several ranks; several RunWorker calls may share a process (the
// in-process differential tests do exactly that).
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	if opt.Coordinator == "" {
		return errors.New("tc2d: WorkerOptions.Coordinator is required")
	}
	st := newRankStore(opt.Metrics)
	mcfg := Options{ComputeSlots: opt.ComputeSlots, Metrics: opt.Metrics}.mpiConfig()
	return pworld.RunWorker(ctx, pworld.WorkerConfig{
		Coordinator: opt.Coordinator,
		Ranks:       opt.Ranks,
		Listen:      opt.Listen,
		Format:      snapshot.FormatVersion,
		MPI:         mcfg,
		Dispatch:    st.dispatch,
		OnReady:     opt.OnReady,
		Logf:        opt.Logf,
	})
}

// decodeArgs looks an op up in the table and decodes its args from their
// wire form; an unknown name and args that do not decode are typed errors.
func decodeArgs(name string, common, mine []byte) (epochOp, any, error) {
	op, ok := ops[name]
	if !ok {
		return op, nil, fmt.Errorf("%w: %q", errUnknownOp, name)
	}
	args, err := op.decode(common, mine)
	if err != nil {
		return op, nil, fmt.Errorf("%w: %s: %v", errBadOpArgs, name, err)
	}
	return op, args, nil
}

// dispatch executes one epoch operation for one locally hosted rank: look the
// name up in the op table, decode the args from their wire form, run the
// entry — the very function the in-process engine runs — and encode the
// reply. An unknown name, args that do not decode, and a rank without
// resident state are typed errors; none of them runs any part of an op body
// against resident state.
func (st *rankStore) dispatch(c *mpi.Comm, name string, common, mine []byte) ([]byte, error) {
	op, args, err := decodeArgs(name, common, mine)
	if err != nil {
		return nil, err
	}
	rep, err := op.run(c, st, args)
	if err != nil || rep == nil {
		return nil, err
	}
	return gobEncode(rep), nil
}
