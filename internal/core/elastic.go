package core

// Elastic vertex space: the resident write path can grow the vertex set
// without re-running the preprocessing pipeline. The id/layout stack splits
// the id space in two regions described by a versioned VertexSpace
// descriptor:
//
//   - the BASE region [0, BaseN): the ids the last build saw. Their routing
//     goes through the closed-form cyclic map (CyclicID over BaseN) composed
//     with the retained degree-relabel permutation, exactly as before.
//   - the OVERFLOW region [BaseN, N): ids admitted since the last build.
//     An overflow vertex's label IS its id — the overflow segment of the
//     label map is the identity, so every rank can resolve it with no
//     communication and no retained state. Overflow labels are the largest
//     labels in the space, so they splice into the owning rank's blocks
//     through the ordinary residue arithmetic; they are merely not
//     degree-ordered, which costs kernel balance, not correctness (the
//     orientation only needs a total order).
//
// Growing is therefore a purely local O(growth / q) operation per rank:
// every resident block gains empty rows/columns for the new residue-class
// locals. The next Rebuild folds the overflow back into a clean cyclic,
// degree-ordered layout (BaseN == N again) and bumps the space version.
//
// Like Splice, GrowTo mutates resident state and is EXCLUSIVE: it may only
// run inside a write epoch, never concurrently with CountPrepared.

import (
	"fmt"
	"math"
)

// VertexSpace is the versioned descriptor of a Prepared value's elastic id
// space.
type VertexSpace struct {
	// BaseN is the vertex count at the last build: ids below it route
	// through the cyclic map + retained relabel permutation.
	BaseN int64
	// N is the current vertex count; [BaseN, N) is the overflow region
	// (identity labels, folded in by the next rebuild).
	N int64
	// Version counts layout changes: every GrowTo and every rebuild fold
	// bumps it.
	Version int64
}

// OverflowN returns the size of the overflow region.
func (s VertexSpace) OverflowN() int64 { return s.N - s.BaseN }

// BaseN returns the vertex count at the last build (the extent of the
// cyclic/relabel maps).
func (p *Prepared) BaseN() int64 { return p.baseN }

// Space returns the current vertex-space descriptor.
func (p *Prepared) Space() VertexSpace {
	return VertexSpace{BaseN: p.baseN, N: p.n, Version: p.version}
}

// SetSpaceVersion stamps the descriptor version; the rebuild path uses it to
// carry the version history onto the freshly folded state.
func (p *Prepared) SetSpaceVersion(v int64) { p.version = v }

// growCSRRows extends a resident block with trailing empty rows; an
// uncreated block stays uncreated. The new row pointers take the front of
// adj's room: adj slides right inside the blob's array — one memmove — or,
// when the array is full, into a new one with append's headroom, so a stream
// of vertex arrivals reallocates only amortised-rarely.
func growCSRRows(b *csrBlock, rows int32) {
	if b.xadj == nil || rows <= b.rows {
		return
	}
	old, nnz := b.rows, len(b.adj)
	used := 5 + int(old) + nnz
	grown := append(b.buf[:used], make([]int32, rows-old)...)
	copy(grown[5+int(rows):], grown[5+int(old):used])
	b.buf = grown
	b.setViews(rows, nnz)
	for a := old + 1; a <= rows; a++ {
		b.xadj[a] = int32(nnz)
	}
}

// grow gives every created block, and the empty ones, the rows and columns
// of the residue-class locals a vertex space of n ids adds.
func (b *blocks) grow(n int64) {
	b.nRows, b.nCols = b.dims(n)
	growCSRRows(&b.task, b.nRows)
	growCSRRows(&b.emptyU, b.nRows)
	growCSRRows(b.emptyL.byCols(), b.nCols)
	for i := range b.u {
		growCSRRows(&b.u[i], b.nRows)
	}
	for i := range b.l {
		growCSRRows(b.l[i].byCols(), b.nCols)
	}
}

// GrowTo extends the vertex space to newN ids, admitting the overflow region
// [p.N(), newN) into every resident block: the U/L/task blocks gain empty
// rows and columns for the new residue-class locals, and the global N every
// later query reports moves to newN. No data moves between ranks and no
// relabeling happens — overflow labels are the identity — so the call is
// purely local compute. Every rank must call it with the same newN, inside
// an exclusive write epoch.
func (p *Prepared) GrowTo(newN int64) error {
	if newN <= p.n {
		return nil
	}
	if newN > math.MaxInt32 {
		return fmt.Errorf("core: vertex space of %d ids exceeds the int32 label range", newN)
	}
	p.blk.grow(newN)
	p.n = newN
	p.version++
	return nil
}
