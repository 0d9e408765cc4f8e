package core

import (
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// Preprocessing (§5.3 of the paper), three distributed steps:
//
//   (i)  initial cyclic redistribution of the 1D-distributed graph with
//        relabeling, to break up localized dense regions;
//   (ii) distributed counting sort that relabels vertices in non-decreasing
//        degree order, with an all-to-all exchange to resolve the new labels
//        of remote neighbours;
//   (iii)+(iv) 2D cyclic redistribution that forms, on every grid rank, the
//        upper-triangular block U_{x,y} (CSR), the lower-triangular block
//        L_{x,y} (CSC) and the task block (CSR), in local indices.

// numWithResidue counts integers in [0,n) congruent to r mod q.
func numWithResidue(n int64, q, r int) int32 {
	if int64(r) >= n {
		return 0
	}
	return int32((n - int64(r) + int64(q) - 1) / int64(q))
}

// CyclicOffsets returns the per-rank start offsets of the cyclic relabeling:
// offset[r] is the first new id owned by rank r, offset[p] == n. Rank
// ownership of the new ids is identical to BlockRange because the first
// n mod p ranks receive one extra vertex.
func CyclicOffsets(n int64, p int) []int64 {
	offset := make([]int64, p+1)
	for r := 0; r < p; r++ {
		offset[r+1] = offset[r] + int64(numWithResidue(n, p, r))
	}
	return offset
}

// CyclicID maps an original vertex id to its id after the cyclic
// redistribution (step (i) of preprocessing): v moves to rank v mod p and
// becomes offset[v mod p] + v div p. offset must come from CyclicOffsets
// with the same n and p. The dynamic-update subsystem uses this closed form
// to route batches given in original ids without any retained per-vertex
// map.
func CyclicID(offset []int64, v int32, p int) int32 {
	// One 32-bit divide yields both parts; this runs per adjacency entry.
	q, r := uint32(v)/uint32(p), uint32(v)%uint32(p)
	return int32(offset[r] + int64(q))
}

// cyclicRedistribute implements step (i): vertex v moves to rank v mod p and
// is relabeled to CyclicID(v), which makes every rank's ownership a
// contiguous range again.
func cyclicRedistribute(c *mpi.Comm, in *dgraph.Dist1D, ops *int64) *dgraph.Dist1D {
	p := c.Size()
	n := in.N
	offset := CyclicOffsets(n, p)
	newid := func(v int32) int32 { return CyclicID(offset, v, p) }

	sendbuf := make([][]int32, p)
	c.Compute(func() {
		// Size every destination from the row lengths, then fill.
		need := make([]int, p)
		for v := in.VBeg; v < in.VEnd; v++ {
			need[int(v)%p] += 2 + len(in.Neighbors(v))
		}
		for dst := range sendbuf {
			sendbuf[dst] = make([]int32, 0, need[dst])
		}
		for v := in.VBeg; v < in.VEnd; v++ {
			dst := int(v) % p
			row := in.Neighbors(v)
			buf := append(sendbuf[dst], newid(v), int32(len(row)))
			for _, u := range row {
				buf = append(buf, newid(u))
			}
			sendbuf[dst] = buf
		}
		*ops += int64(len(in.Adj)) + int64(in.NumLocal())
	})
	got := c.AlltoallvInt32(sendbuf)

	var out *dgraph.Dist1D
	c.Compute(func() {
		out = dgraph.AssembleRows(n, int32(offset[c.Rank()]), int32(offset[c.Rank()+1]), got)
		*ops += int64(len(out.Adj))
	})
	return out
}

// relabeled holds the graph after the degree relabeling of step (ii): the
// same vertices stay on the same ranks, but every id (owned and neighbour)
// is replaced by its position in the global non-decreasing-degree order.
type relabeled struct {
	n      int64
	labels []int32 // new label of local vertex lv
	xadj   []int64
	adj    []int32 // neighbour lists in new labels
}

// degreeRelabel implements step (ii) via the shared distributed counting
// sort (dgraph.DegreeLabels): ties within a degree are broken by current id,
// making the permutation deterministic. Vertices stay on their ranks — only
// the labels change — because step (iii) redistributes by the 2D pattern
// anyway.
func degreeRelabel(c *mpi.Comm, in *dgraph.Dist1D, ops *int64) *relabeled {
	labels, newAdj := dgraph.DegreeLabels(c, in, ops)
	return &relabeled{n: in.N, labels: labels, xadj: in.Xadj, adj: newAdj}
}

// blocks is the per-rank state after the 2D cyclic redistribution: the task
// block (CSR, rows residue x → cols residue y), the owned U block (CSR) and
// the owned L block (CSC), all in local indices (global id div q).
type blocks struct {
	q, x, y  int
	n        int64
	nRowsX   int32 // locals with residue x (row dimension of task and U)
	nColsY   int32 // locals with residue y (col dimension of task and L)
	task     csrBlock
	taskRows []int32 // doubly-sparse non-empty row list
	ublk     csrBlock
	lblk     cscBlock
	// maxURow is the global maximum U-block row length (allreduced), used
	// to size the intersection hash map identically on all ranks.
	maxURow int64
}

// routePairs is the sending half of the 2D redistribution: every directed
// pair (w_v → w_u) of the relabeled graph goes to the grid rank at (w_v mod
// qr, w_u mod qc) — rank (w_v mod qr)·qc + (w_u mod qc), the row-major
// numbering of both grid types. A counting pass sizes each destination
// buffer exactly; the buffers are handed to the all-to-all, and the received
// ones (indexed by source rank) returned.
func routePairs(c *mpi.Comm, qr, qc int, rl *relabeled, ops *int64) [][]int32 {
	sendbuf := make([][]int32, c.Size())
	c.Compute(func() {
		qr, qc := int32(qr), int32(qc) // 32-bit divides in the per-entry loops
		need := make([]int, len(sendbuf))
		for lv, wv := range rl.labels {
			base := wv % qr * qc
			for _, wu := range rl.adj[rl.xadj[lv]:rl.xadj[lv+1]] {
				need[base+wu%qc] += 2
			}
		}
		for dst := range sendbuf {
			sendbuf[dst] = make([]int32, 0, need[dst])
		}
		for lv, wv := range rl.labels {
			base := wv % qr * qc
			for _, wu := range rl.adj[rl.xadj[lv]:rl.xadj[lv+1]] {
				dst := base + wu%qc
				sendbuf[dst] = append(sendbuf[dst], wv, wu)
			}
		}
		*ops += int64(len(rl.adj))
	})
	return c.AlltoallvInt32(sendbuf)
}

// build2D implements steps (iii)+(iv): every directed pair (w_v → w_u) of
// the relabeled graph is routed to grid rank (w_v mod q, w_u mod q); pairs
// with w_u > w_v form U entries, pairs with w_u < w_v form L entries. The
// task block is the L pattern for ⟨j,i,k⟩ and the U pattern for ⟨i,j,k⟩.
func build2D(c *mpi.Comm, grid *mpi.Grid, rl *relabeled, enum Enumeration, ops *int64) *blocks {
	q := grid.Q()
	got := routePairs(c, q, q, rl, ops)

	blk := &blocks{
		q: q, x: grid.Row(), y: grid.Col(), n: rl.n,
		nRowsX: numWithResidue(rl.n, q, grid.Row()),
		nColsY: numWithResidue(rl.n, q, grid.Col()),
	}
	var maxRow int64
	c.Compute(func() {
		blk.task, blk.ublk, blk.lblk = buildBlocks(got, int32(q), int32(q), blk.nRowsX, blk.nColsY, enum)
		blk.taskRows = blk.task.nonEmptyRows(nil)
		*ops += blk.ublk.nnz() + int64(len(blk.lblk.adj))
		maxRow = blk.ublk.maxRow()
	})
	blk.maxURow = c.AllreduceInt64(maxRow, mpi.OpMax)
	return blk
}
