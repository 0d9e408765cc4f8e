package core

import (
	"fmt"
	"sync/atomic"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// Prepared is the resident per-rank state of the build-once / query-many
// split: everything the preprocessing phase produces (the 2D blocks in local
// indices plus the global graph invariants), detached from any particular
// epoch's Comm so it can serve repeated CountPrepared calls. There is one
// layout (blocks) for every grid; bcast records which of the two schedules
// moves the operand blocks of a count over it — Cannon's shifts (square grids
// only), whose L operands are the transposed ranks' U blocks, or SUMMA's
// broadcasts — and with it which snapshot kinds the state is written as.
//
// The state is read-only during counting — each count's kernel works in
// scratch of its own, a bitmap and hub masks taken from a one-scratch cache
// and put back when the count ends, and the operand blobs that travel are
// the resident blocks' own bytes, read in place by every rank they reach —
// so repeated queries against the same Prepared value are independent and
// return identical counts.
type Prepared struct {
	blk   *blocks
	bcast bool

	// Elastic vertex space (see elastic.go): n is the CURRENT vertex
	// count, baseN the count at the last build. Ids in [baseN, n) form the
	// overflow region (identity labels); version counts layout changes.
	n, baseN int64
	version  int64

	m      int64
	wedges int64
	preOps int64

	// Retained routing state for the dynamic-update subsystem
	// (internal/delta): the degree-relabel permutation over this rank's
	// cyclic-id range of the BASE region [0, baseN) — composed with the
	// closed-form cyclic map it routes update batches from original vertex
	// ids to current labels; overflow ids [baseN, n) resolve to themselves.
	labels   []int32 // final label of cyclic id labelBeg+i
	labelBeg int32   // first cyclic id owned by this rank

	// Churn tracking (see dirty.go): degreeDirty is the replicated set of
	// labels whose degree changed since the last rebuild fold; snap records
	// the rows/columns/label slots this rank rewrote since the last
	// committed snapshot (nil unless the durability layer enabled it).
	degreeDirty map[int32]struct{}
	snap        *snapDirty

	// Working memory and counters of Splice (see dynamic.go), and the
	// kernel's cached scratch (see newKernel).
	splice  spliceScratch
	scratch atomic.Pointer[kernelScratch]
}

// N returns the global vertex count.
func (p *Prepared) N() int64 { return p.n }

// M returns the global undirected edge count.
func (p *Prepared) M() int64 { return p.m }

// Wedges returns the global wedge count Σ_v d(v)·(d(v)-1)/2, the
// denominator of the transitivity (global clustering) coefficient.
func (p *Prepared) Wedges() int64 { return p.wedges }

// PreOps returns the global adjacency-entry operation count of the
// preprocessing phase that built this state.
func (p *Prepared) PreOps() int64 { return p.preOps }

// localWedges sums d(v)·(d(v)-1)/2 over the locally owned vertices of the
// original (pre-relabeling) distribution; degrees are invariant under the
// relabelings, so this is the graph's true wedge count.
func localWedges(in *dgraph.Dist1D) int64 {
	var w int64
	for v := int32(0); v < in.NumLocal(); v++ {
		d := in.Xadj[v+1] - in.Xadj[v]
		w += d * (d - 1) / 2
	}
	return w
}

// PrepareGrid runs the preprocessing phase once — cyclic redistribution,
// degree relabeling, 2D block construction — and returns the resident
// per-rank state for a qr × qc process grid, laid out for the ⟨j,i,k⟩ rule,
// the one the write path reads rows by. bcast selects how a count moves the
// operand blocks: Cannon's shifts (false; the grid must be square) or
// SUMMA's broadcasts (true; any grid that tiles the world). Every rank of the
// communicator must call it with its own input share and identical
// arguments. The returned state may then serve any number of CountPrepared
// calls, including from later epochs of the same world. opt.Enumeration must
// be ⟨j,i,k⟩: only the one-shot CountGrid counts under ⟨i,j,k⟩.
func PrepareGrid(c *mpi.Comm, in *dgraph.Dist1D, qr, qc int, bcast bool, opt Options) (*Prepared, error) {
	if opt.Enumeration != EnumJIK {
		return nil, fmt.Errorf("core: a resident state is laid out for ⟨j,i,k⟩; the %v rule counts only through CountGrid", opt.Enumeration)
	}
	return prepareGrid(c, in, qr, qc, bcast, EnumJIK)
}

// prepareGrid is PrepareGrid for either rule. An ⟨i,j,k⟩ state, whose task
// block is its U block, serves CountGrid's one count and nothing else.
func prepareGrid(c *mpi.Comm, in *dgraph.Dist1D, qr, qc int, bcast bool, enum Enumeration) (*Prepared, error) {
	if !bcast && qr != qc {
		return nil, fmt.Errorf("core: the shift schedule needs a square grid, got %d×%d for %d ranks", qr, qc, c.Size())
	}
	grid, err := mpi.NewGrid(c, qr, qc)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, fmt.Errorf("core: nil input")
	}
	if in.N < 1 {
		return nil, fmt.Errorf("core: empty graph")
	}
	prep := &Prepared{bcast: bcast, n: in.N, baseN: in.N}
	localDirected := int64(len(in.Adj))
	wedgesLocal := localWedges(in)

	var preOps int64
	rl, err := degreeRelabel(c, cyclicRedistribute(c, in, &preOps), &preOps)
	if err != nil {
		return nil, err
	}
	prep.labels, prep.labelBeg = rl.labels, rl.beg
	if prep.blk, err = build2D(c, grid, rl, bcast, enum, &preOps); err != nil {
		return nil, err
	}

	// The global reductions of the graph invariants.
	sums := c.AllreduceInt64s([]int64{preOps, localDirected, wedgesLocal}, mpi.OpSum)
	prep.preOps = sums[0]
	prep.m = sums[1] / 2
	prep.wedges = sums[2]
	prep.reserveScratch()
	return prep, nil
}

// Prepare is PrepareGrid for the shift schedule on the most square
// factorization of the world size; that grid is square only when the size
// is, and PrepareGrid refuses any other (use bcast for those sizes).
func Prepare(c *mpi.Comm, in *dgraph.Dist1D, opt Options) (*Prepared, error) {
	qr, qc := mpi.FactorGrid(c.Size())
	return PrepareGrid(c, in, qr, qc, false, opt)
}

// CountPrepared runs the triangle counting phase against resident state —
// the query half of the build-once / query-many split. It performs no
// redistribution, relabeling or block building: the returned Result has
// PreOps == 0 (the preprocessing cost lives on the Prepared value) and no
// modeled times, which only CountGrid measures. Every rank must call it
// with its own Prepared state from the same Prepare and identical options.
// The count runs under the rule the task block was built for, ⟨j,i,k⟩ on
// every state PrepareGrid or DecodeChain returns; opt.Enumeration is not
// read. The call is repeatable: the resident blocks are not mutated.
// An operand that arrives from another rank and does not decode for this one
// fails the call with an error naming the rank, the step and the operand.
//
// CountPrepared is strictly read-only against the Prepared state (each
// count's kernel scratch is its own while the count runs, taken from a
// one-scratch cache and put back when its steps end; the operand blobs are
// the resident bytes, which other ranks read in place), so any number of
// CountPrepared epochs may run concurrently over the same state as
// World.RunRead epochs. The write-path operations — Splice, GrowTo,
// AdjustTotals, SetLabels, and the delta package's
// Apply/Rebuild built on them — are exclusive and must not overlap any
// CountPrepared epoch; the cluster scheduler enforces this split.
func CountPrepared(c *mpi.Comm, prep *Prepared, opt Options) (*Result, error) {
	if prep == nil {
		return nil, fmt.Errorf("core: nil prepared state")
	}
	grid, err := mpi.NewGrid(c, prep.blk.qr, prep.blk.qc)
	if err != nil {
		return nil, fmt.Errorf("core: state prepared on a %d×%d grid: %w", prep.blk.qr, prep.blk.qc, err)
	}
	res := &Result{N: prep.n, M: prep.m}

	// Each rank hangs its own span tree under the caller's parent: the
	// schedule loop adds per-step shift/bcast (communication) and kernel
	// (compute) children, so a traced count decomposes its wall time the
	// way §7's comm-vs-comp tables do. opt.Trace is nil for untraced
	// counts and every span method is a no-op then.
	rankSpan := opt.Trace.StartChild("rank")
	rankSpan.SetAttr("rank", c.Rank())
	opt.Trace = rankSpan

	kc, perShift, err := prep.countSteps(c, grid, opt)
	if err != nil {
		rankSpan.End()
		return nil, err
	}

	// Each rank contributes its local counters, so the registry totals are
	// the global sums without double counting the (identical) allreduced
	// values p times.
	if reg := opt.Metrics; reg != nil {
		reg.Counter("tc_kernel_probes_total", "Map lookups performed by the counting kernel.").Add(float64(kc.probes))
		reg.Counter("tc_kernel_map_tasks_total", "(task, shift) pairs that ran a set intersection.").Add(float64(kc.mapTasks))
	}

	rs := rankSpan.StartChild("reduce")
	sums := c.AllreduceInt64s([]int64{kc.triangles, kc.probes, kc.mapTasks}, mpi.OpSum)
	rs.End()
	res.Triangles = sums[0]
	res.Probes = sums[1]
	res.MapTasks = sums[2]

	res.LocalTriangles = kc.triangles
	for _, d := range perShift {
		res.LocalKernelTime += d
	}
	if opt.TrackPerShift {
		res.LocalPerShift = perShift
	}
	rankSpan.End()
	return res, nil
}
