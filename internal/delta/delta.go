// Package delta is the dynamic-update subsystem: it lets a resident
// distributed graph (core.Prepared state on every rank of a standing
// world) apply batches of edge insertions and deletions — and, since the
// vertex space became elastic, vertex additions and removals — and keep
// its triangle, edge and wedge counts exact, without re-running the
// preprocessing pipeline.
//
// The approach follows the streaming literature (Tangwongsan et al.,
// "Parallel Triangle Counting in Massive Streaming Graphs"): instead of
// recounting, only triangles incident to batch edges are enumerated.
// A triangle containing j batch edges is discovered exactly j times —
// once per batch edge serving as the base of the intersection — so
// counting discoveries bucketed by how many of the other two edges are
// batch edges (C0, C1, C2) gives the exact incident-triangle count as
// C0 + C1/2 + C2/3, with both divisions exact over the global sums.
// Deletions are counted against the pre-splice graph and subtract;
// insertions are counted against the post-splice graph and add. An edge
// deleted and a third edge inserted can never share a triangle (the
// triangle exists in neither the old nor the new graph), so the two
// passes compose without cross terms.
//
// Vertex elasticity rides the same machinery. Edges naming ids beyond the
// current vertex space are not errors: a vertex-admission pre-pass
// (deterministic scan of the batch, agreed on as one lane of the
// max-allreduce that resolves the batch's labels) sizes
// the new space, every rank grows its resident blocks locally
// (core.Prepared.GrowTo — overflow labels are the identity, so nothing
// moves), and the batch then proceeds as usual. OpRemoveVertex drops a
// vertex and all its incident edges as one batch op: the owning grid row
// gathers the vertex's full adjacency from its blocks, the incident
// edges join the deletion list, and the existing incident-triangle delta
// pass prices them exactly. Only ids that never existed (negative, or a
// removal naming an id outside the space) are rejected, with
// ErrVertexRange so callers can tell "grow the graph" apart from a
// malformed batch.
//
// Communication follows Sanders & Uhl's communication-efficiency
// principle: every rank already holds the batch, so it never travels; each
// directed entry is spliced on the rank that already owns its block (the
// 2D cyclic placement depends only on labels, which updates never change —
// no data moves between ranks), and the delta passes ship only the
// adjacency rows of batch endpoints, through the sparse all-to-all
// collective.
package delta

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrVertexRange marks a batch naming a vertex id that cannot exist in any
// state of the graph: a negative endpoint, a removal of an id outside the
// current vertex space, or growth beyond a configured or representable
// bound. Edges naming ids at or above the current vertex count do NOT
// produce it — they grow the graph. Callers (and the tcd daemon, which
// maps it to a 400) use it to distinguish malformed input from legitimate
// vertex arrival.
var ErrVertexRange = errors.New("delta: vertex id out of range")

// Op selects the kind of one update.
type Op int8

// Update operations.
const (
	OpInsert Op = iota
	OpDelete
	// OpAddVertices grows the vertex space by U fresh ids (V unused). The
	// allocated ids are contiguous and reported through Result.VertexBase;
	// they start above every id referenced elsewhere in the same batch.
	OpAddVertices
	// OpRemoveVertex drops vertex U (V unused) and every edge incident to
	// it as one operation, with an exact triangle delta. The id itself
	// stays in the vertex space (isolated); a later edge touching it
	// simply revives it.
	OpRemoveVertex
)

func (o Op) String() string {
	switch o {
	case OpDelete:
		return "delete"
	case OpAddVertices:
		return "add_vertices"
	case OpRemoveVertex:
		return "remove_vertex"
	}
	return "insert"
}

// Update is one mutation, in original vertex ids: an undirected edge
// insertion or deletion (U, V), a vertex-space growth (OpAddVertices,
// U = count) or a vertex removal (OpRemoveVertex, U = id).
type Update struct {
	U, V int32
	Op   Op
}

// Result reports one applied batch. All totals are global and identical on
// every rank.
type Result struct {
	// Inserted and Deleted count the effective edge mutations — Deleted
	// includes the incident edges dropped by vertex removals; Skipped*
	// count the batch entries that were no-ops (inserting a present edge,
	// deleting an absent one, self loops).
	Inserted, Deleted               int
	SkippedExisting, SkippedMissing int
	SkippedLoops                    int

	// AddedVertices is the number of ids the batch (for a coalesced
	// super-batch: the whole epoch) admitted into the vertex space —
	// explicit OpAddVertices allocations plus implicit growth from edges
	// naming ids beyond the previous space. RemovedVertices counts
	// OpRemoveVertex entries applied; GrownTo is the vertex count after
	// the batch. VertexBase is the first id allocated by the batch's
	// OpAddVertices entries (-1 when there were none).
	AddedVertices   int
	RemovedVertices int
	GrownTo         int64
	VertexBase      int64

	// Effective[i] reports whether the i-th entry of the canonical batch
	// passed to Apply actually mutated the graph (false = it became one of
	// the Skipped* counts). The write scheduler uses it to demultiplex a
	// coalesced super-batch back into per-caller results. VertexBases and
	// RemovalDrops are aligned the same way: the allocation base of an
	// OpAddVertices entry (-1 otherwise) and the incident edges an
	// OpRemoveVertex entry dropped (an edge between two removed vertices
	// is attributed to the earlier entry).
	Effective    []bool
	VertexBases  []int64
	RemovalDrops []int32

	// DeltaTriangles is the exact triangle-count change of this batch;
	// Triangles the maintained running total (filled by the cluster layer).
	DeltaTriangles int64
	Triangles      int64

	// Coalesced is how many caller batches the write scheduler merged into
	// the epoch that produced this result (1 when uncoalesced; filled by
	// the cluster layer). The shared fields — DeltaTriangles, Triangles, M,
	// Wedges, GrownTo, Probes — describe that whole epoch.
	Coalesced int

	// M and Wedges are the graph's edge and wedge totals after the batch.
	M, Wedges int64

	// Probes counts the bitmap lookups of the two delta passes.
	Probes int64

	// PreOps is 0 for a pure delta apply. When staleness triggered a
	// rebuild, Rebuilt is set and PreOps reports the preprocessing
	// operations the rebuild performed.
	PreOps  int64
	Rebuilt bool
}

// Canonicalize validates and normalizes a raw batch against a vertex space
// of n ids. Edge endpoints must be non-negative but may lie at or beyond n
// — the apply pre-pass grows the space to admit them; negative endpoints,
// removals naming ids outside [0, n) and non-positive growth counts are
// rejected (wrapping ErrVertexRange where an id is at fault). Self loops
// are dropped (counted); edges are normalized to U < V; exact duplicates
// collapse; a batch that both inserts and deletes the same edge, or that
// removes a vertex and also updates an edge incident to it, is rejected —
// the intended final state is ambiguous. All OpAddVertices entries of the
// batch merge into one leading entry carrying the total count; removals
// dedup and sort; edges sort by (U, V). The canonical order — growth,
// removals, edges — makes everything downstream deterministic.
func Canonicalize(batch []Update, n int64) (canon []Update, loops int, err error) {
	var adds int64
	var removed []int32
	edges := make([]Update, 0, len(batch))
	for _, upd := range batch {
		switch upd.Op {
		case OpAddVertices:
			if upd.U <= 0 {
				return nil, 0, fmt.Errorf("delta: add of %d vertices (count must be positive)", upd.U)
			}
			adds += int64(upd.U)
			if adds > math.MaxInt32 {
				return nil, 0, fmt.Errorf("delta: adding %d vertices exceeds the int32 id space: %w", adds, ErrVertexRange)
			}
		case OpRemoveVertex:
			if upd.U < 0 || int64(upd.U) >= n {
				return nil, 0, fmt.Errorf("delta: removal of vertex %d outside the current space [0, %d): %w", upd.U, n, ErrVertexRange)
			}
			removed = append(removed, upd.U)
		case OpInsert, OpDelete:
			if upd.U < 0 || upd.V < 0 {
				return nil, 0, fmt.Errorf("delta: update (%d, %d) has a negative endpoint: %w", upd.U, upd.V, ErrVertexRange)
			}
			if upd.U == upd.V {
				loops++
				continue
			}
			if upd.U > upd.V {
				upd.U, upd.V = upd.V, upd.U
			}
			edges = append(edges, upd)
		default:
			return nil, 0, fmt.Errorf("delta: unknown op %d", upd.Op)
		}
	}
	slices.Sort(removed)
	removed = slices.Compact(removed)
	slices.SortFunc(edges, func(a, b Update) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		if c := cmp.Compare(a.V, b.V); c != 0 {
			return c
		}
		return cmp.Compare(a.Op, b.Op)
	})
	w := 0
	for i, upd := range edges {
		if i > 0 && upd == edges[i-1] {
			continue
		}
		if i > 0 && upd.U == edges[i-1].U && upd.V == edges[i-1].V {
			return nil, 0, fmt.Errorf("delta: batch both inserts and deletes edge (%d, %d)", upd.U, upd.V)
		}
		if len(removed) > 0 {
			_, remU := slices.BinarySearch(removed, upd.U)
			_, remV := slices.BinarySearch(removed, upd.V)
			if remU || remV {
				return nil, 0, fmt.Errorf("delta: batch removes a vertex of edge (%d, %d) and also updates it", upd.U, upd.V)
			}
		}
		edges[w] = upd
		w++
	}
	edges = edges[:w]

	canon = make([]Update, 0, 1+len(removed)+len(edges))
	if adds > 0 {
		canon = append(canon, Update{U: int32(adds), Op: OpAddVertices})
	}
	for _, v := range removed {
		canon = append(canon, Update{U: v, Op: OpRemoveVertex})
	}
	return append(canon, edges...), loops, nil
}
