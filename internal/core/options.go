// Package core implements the paper's contribution: the 2D parallel triangle
// counting algorithm for distributed-memory architectures (Tom & Karypis,
// ICPP 2019).
//
// The pipeline, one SPMD program over a √p × √p process grid:
//
//  1. Initial cyclic redistribution of the 1D-distributed input graph and
//     relabeling (preprocessing step i).
//  2. Distributed counting sort that relabels vertices in non-decreasing
//     degree order (step ii), including the neighbour-label exchange.
//  3. 2D cyclic redistribution of the upper/lower triangular matrices and
//     construction of the per-rank task and U (CSR) blocks, plus the L
//     (CSC) blocks where SUMMA's broadcasts move them (steps iii and iv).
//  4. Triangle counting over √p Cannon-style shifts with the bitmap-based
//     ⟨j,i,k⟩ intersection kernel and the paper's four optimizations.
//  5. Global reduction of the triangle count.
//
// Every optimization from §5.2 of the paper is individually toggleable via
// Options so the §7.3 ablation experiments can be reproduced. The resident
// state that serves repeated counts and writes (PrepareGrid, DecodeChain) is
// always laid out for ⟨j,i,k⟩; the ⟨i,j,k⟩ rule is a one-shot CountGrid
// option.
package core

import "tc2d/internal/obs"

// Enumeration selects the triangle enumeration rule (§3.1 of the paper).
type Enumeration int

const (
	// EnumJIK is the ⟨j,i,k⟩ rule: tasks are the non-zeros of L; the U-row
	// of the higher-degree endpoint j is hashed once and probed by the
	// adjacency of each lower-degree endpoint i. This is the paper's
	// preferred scheme (72.8% faster than ⟨i,j,k⟩ in §7.3).
	EnumJIK Enumeration = iota
	// EnumIJK is the ⟨i,j,k⟩ rule: tasks are the non-zeros of U; the U-row
	// of the lower-degree endpoint i is hashed and probed by the column j
	// of L.
	EnumIJK
)

func (e Enumeration) String() string {
	if e == EnumIJK {
		return "ijk"
	}
	return "jik"
}

// Options configures the distributed counting algorithm. The zero value is
// the paper's full configuration (all optimizations on, ⟨j,i,k⟩).
type Options struct {
	// Enumeration selects ⟨j,i,k⟩ (default) or ⟨i,j,k⟩. Only CountGrid
	// reads it, for the one count it builds a state for; PrepareGrid
	// refuses ⟨i,j,k⟩, as every resident state is laid out for ⟨j,i,k⟩.
	Enumeration Enumeration
	// NoDoublySparse disables the DCSR-style non-empty-row lists that skip
	// vertices whose local task/U rows are empty (§5.2 "doubly sparse
	// traversal of the CSR structure").
	NoDoublySparse bool
	// NoDirectHash replaces the direct-addressed bitmap — the paper's
	// collision-free direct hashing, which the kernel applies to every row —
	// with the multiplicative-hash probing table (§5.2 "modifying the
	// hashing routine for sparser vertices").
	NoDirectHash bool
	// NoEarlyBreak walks every probe list in full instead of backwards
	// down to the hashed row's minimum key (§5.2 "eliminating unnecessary
	// intersection operations").
	NoEarlyBreak bool
	// NoBlob disables the single-blob block serialization for shifts and
	// sends each sparse-matrix array as a separate, element-wise encoded
	// message (§5.2 "reducing overheads associated with communication").
	NoBlob bool
	// TrackPerShift records per-shift kernel compute times (Table 3).
	TrackPerShift bool

	// Metrics, when non-nil, receives kernel accounting from every count:
	// each rank adds its local probe/task counters (so the registry
	// totals are the global sums) and per-compute-step counts. Nil
	// disables all of it; both fields are pointers so Options stays
	// comparable.
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent span each rank hangs its count
	// spans under: one "rank" child per rank, with per-step "shift"/
	// "bcast" (communication) and "kernel" (compute) children whose
	// wall-clock durations decompose the count the way the paper's §7
	// comm-vs-comp tables do.
	Trace *obs.Span
}

// Result reports the outcome and instrumentation of one distributed count.
// Global fields are identical on every rank; per-rank fields describe the
// local rank.
type Result struct {
	// Triangles is the global triangle count.
	Triangles int64
	// N and M are the global vertex and undirected-edge counts.
	N int64
	M int64

	// PreprocessTime, CountTime and TotalTime are the modeled parallel
	// times (seconds on the runtime's virtual clock: measured local work
	// plus LogGP communication terms — tcpaper's output, not wall-clock) of
	// the preprocessing phase, the triangle counting phase, and their sum.
	// Identical on all ranks (CountGrid fences the phases by barriers).
	// Set only by the one-shot CountGrid; zero on CountPrepared results.
	PreprocessTime float64
	CountTime      float64
	TotalTime      float64

	// CommFracPre and CommFracCount are the average over ranks of the
	// modeled fraction of each phase spent in communication (Figure 3).
	// Set only by the one-shot CountGrid, like the times above.
	CommFracPre   float64
	CommFracCount float64

	// Probes is the global number of map lookups performed by the kernel
	// (the operation count behind Figure 2 and the twitter-vs-friendster
	// discussion in §7.1).
	Probes int64
	// MapTasks is the global number of (task, shift) pairs that resulted
	// in a set intersection (Table 4's redundant-work metric).
	MapTasks int64
	// MergeTasks and MergeOps are always zero: the sorted-merge routine
	// that reported them is gone, and bench/layers.go still reads them.
	MergeTasks, MergeOps int64
	// PreOps is the global number of adjacency-entry operations performed
	// during preprocessing (the ppt operation count of Figure 2).
	PreOps int64

	// LocalKernelTime is this rank's total kernel compute time (seconds)
	// across shifts; LocalPerShift the per-shift breakdown when
	// Options.TrackPerShift is set. Used for Table 3's load imbalance.
	LocalKernelTime float64
	LocalPerShift   []float64
	// LocalTriangles is this rank's contribution to the count.
	LocalTriangles int64
}
