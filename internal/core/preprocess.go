package core

import (
	"fmt"
	"iter"

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
//        upper-triangular block U_{x,y} (CSR) and the task block (CSR), in
//        local indices, plus the lower-triangular block L_{x,y} (CSC) under
//        the broadcast schedule, the one whose L blocks travel.
//
// Each step allocates only what the next one keeps. The chunks the cyclic
// all-to-all delivers are the 1D block: step (ii) reads the degrees off
// their headers and relabels them in place, and step (iii) routes the pairs
// straight from them. The 2D exchange is sent from the column side, so a
// receiver gets every column of its blocks as one group and builds the rows
// it keeps, already sorted, in one sweep over the columns in ascending
// order, with no temporary block between.

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

// cyclicBlock is this rank's 1D block after step (i), the cyclic ids [beg,
// end) of an n-vertex graph, held as the parts the all-to-all delivered,
// indexed by source rank: each part a sequence of chunks [id, count,
// neighbours…] with every owned id in one chunk. The chunks are the block —
// nothing copies them into one array — and the steps after it walk them.
type cyclicBlock struct {
	n        int64
	beg, end int32
	parts    [][]int32
}

// cyclicRedistribute implements step (i): vertex v moves to rank v mod p and
// is relabeled to CyclicID(v), which makes every rank's ownership a
// contiguous range again.
func cyclicRedistribute(c *mpi.Comm, in *dgraph.Dist1D, ops *int64) *cyclicBlock {
	p := c.Size()
	n := in.N
	offset := CyclicOffsets(n, p)
	newid := func(v int32) int32 { return CyclicID(offset, v, p) }

	sendbuf := make([][]int32, p)
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
	return &cyclicBlock{n: n, beg: int32(offset[c.Rank()]), end: int32(offset[c.Rank()+1]),
		parts: c.AlltoallvInt32(sendbuf)}
}

// degrees is the degree pass over the chunks: the degree of every owned id,
// by local index, read off the chunk headers, and the number of neighbour
// entries. The parts came off the wire, so it checks them first: every id
// lies in [beg, end) and arrives once, every count fits its part, and every
// neighbour id lies in [0, n); the first chunk that does not is a
// *PartError. An owned id no chunk names keeps degree 0.
func (b *cyclicBlock) degrees() (deg []int32, entries int64, err error) {
	deg = make([]int32, b.end-b.beg)
	for i := range deg {
		deg[i] = -1
	}
	for src, part := range b.parts {
		for i := 0; i < len(part); {
			if len(part)-i < 2 {
				return nil, 0, partError(exchCyclic, src, i, "truncated chunk header")
			}
			id, k := part[i], part[i+1]
			if id < b.beg || id >= b.end {
				return nil, 0, partError(exchCyclic, src, i, "id %d outside [%d, %d)", id, b.beg, b.end)
			}
			if deg[id-b.beg] >= 0 {
				return nil, 0, partError(exchCyclic, src, i, "id %d arrives twice", id)
			}
			if k < 0 || int(k) > len(part)-i-2 {
				return nil, 0, partError(exchCyclic, src, i, "count %d, %d words left", k, len(part)-i-2)
			}
			for _, u := range part[i+2 : i+2+int(k)] {
				if u < 0 || int64(u) >= b.n {
					return nil, 0, partError(exchCyclic, src, i, "neighbour %d outside [0, %d)", u, b.n)
				}
			}
			deg[id-b.beg] = k
			entries += int64(k)
			i += 2 + int(k)
		}
	}
	for i, d := range deg {
		deg[i] = max(d, 0)
	}
	return deg, entries, nil
}

// chunks ranges over the chunks of the block: each owned id with its
// neighbour list, a view into the part it arrived in. The parts must have
// passed degrees.
func (b *cyclicBlock) chunks() iter.Seq2[int32, []int32] {
	return func(yield func(int32, []int32) bool) {
		for _, part := range b.parts {
			for i := 0; i < len(part); {
				k := int(part[i+1])
				if !yield(part[i], part[i+2:i+2+k]) {
					return
				}
				i += 2 + k
			}
		}
	}
}

// neighbours ranges over the neighbour lists of the block's chunks.
func (b *cyclicBlock) neighbours() iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		for _, row := range b.chunks() {
			if !yield(row) {
				return
			}
		}
	}
}

// relabeled holds the graph after the degree relabeling of step (ii): the
// same vertices stay on the same ranks, in the same chunks, but every id
// (owned and neighbour) is replaced by its position in the global
// non-decreasing-degree order — the owned ones by labels, the neighbours in
// the chunks themselves.
type relabeled struct {
	*cyclicBlock
	labels []int32 // new label of cyclic id beg+i
}

// degreeRelabel implements step (ii) via the shared distributed counting
// sort (dgraph.DegreeLabels): ties within a degree are broken by current id,
// making the permutation deterministic. Vertices stay on their ranks — only
// the labels change — because step (iii) redistributes by the 2D pattern
// anyway. The chunks of in, which nothing else holds, are relabeled in
// place. Chunks that fail the degree pass on one rank fail the step on
// every rank: the ranks agree on it in DegreeLabels' first allreduce.
func degreeRelabel(c *mpi.Comm, in *cyclicBlock, ops *int64) (*relabeled, error) {
	deg, entries, bad := in.degrees()
	*ops += entries
	labels, err := dgraph.DegreeLabels(c, in.n, in.beg, deg, in.neighbours(), bad, ops)
	if err != nil {
		return nil, err
	}
	return &relabeled{cyclicBlock: in, labels: labels}, nil
}

// blocks is the per-rank state after the 2D cyclic redistribution onto a
// qr × qc grid, the one resident layout of both schedules: the task block
// (CSR, rows of residue row mod qr → columns of residue col mod qc, in local
// indices id div modulus) and the owned operand entries — U by rows (CSR), L
// by columns (CSC) — split by the residue class of the inner index k mod
// L = lcm(qr, qc), with k div L stored as the intersection key so that the
// two operands of a step agree on local indices. This rank owns the U
// classes ≡ col (mod qc) and the L classes ≡ row (mod qr): u[i] holds class
// i·qc + col, l[i] class i·qr + row. On a square grid L = q and u has length
// 1 — the block U_{x,y} of §5.1 — and l is empty: the shift schedule reads
// L_{x,y} as rank (y,x)'s U block.
//
// A block whose xadj is nil has not been created: the broadcast schedule
// builds only the classes that have an entry (its snapshot kind lists the
// classes that exist) and Splice creates one at its first insertion; a
// created block stays, even emptied. The shift schedule's blocks always
// exist.
type blocks struct {
	qr, qc, L    int
	row, col     int
	nRows, nCols int32 // locals with this rank's row / column residue
	task         csrBlock
	taskRows     []int32 // doubly-sparse non-empty row list
	u            []csrBlock
	l            []cscBlock
	// emptyU and emptyL are the blocks without entries an uncreated class
	// travels as, built with the layout so a read allocates nothing
	// (broadcast schedule only).
	emptyU csrBlock
	emptyL cscBlock
	// maxURow is the global maximum U row length over all classes
	// (allreduced), which sizes the probing table of the NoDirectHash
	// ablation identically on all ranks.
	maxURow int64
}

// newBlocks returns the empty layout of world rank `rank` on a qr × qc grid
// over n vertices for the schedule bcast selects: geometry set, no class
// created, and room for L classes under the broadcast schedule only.
func newBlocks(qr, qc, rank int, n int64, bcast bool) *blocks {
	L := lcm(qr, qc)
	b := &blocks{qr: qr, qc: qc, L: L, row: rank / qc, col: rank % qc, u: make([]csrBlock, L/qc)}
	b.nRows, b.nCols = b.dims(n)
	if bcast {
		b.l = make([]cscBlock, L/qr)
		b.emptyU = emptyBlock(kindU, b.nRows)
		b.emptyL = cscBlock(emptyBlock(kindL, b.nCols))
	}
	return b
}

// dims returns the row and column dimension of this rank's blocks over n
// vertices.
func (b *blocks) dims(n int64) (nRows, nCols int32) {
	return numWithResidue(n, b.qr, b.row), numWithResidue(n, b.qc, b.col)
}

// routePairs is the sending half of the 2D redistribution, from the column
// side: every directed pair (w_v → w_u) of the relabeled graph goes to the
// grid rank at (w_v mod qr, w_u mod qc) — rank (w_v mod qr)·qc + (w_u mod
// qc), the grid's row-major numbering — and the owner of w_u sends it, in
// local indices, one group per (vertex, destination):
//
//	[w_u div qc, count, entries…]
//
// each entry the local row w_v div qr, complemented (^) when the pair is an
// L entry (w_v ≥ w_u). The graph is symmetric, so every pair a rank's
// blocks hold still arrives, once; a column's entries for one rank arrive
// in one group, which lets the receiver sort nothing (buildBlocks). The
// division that picks an entry's destination also yields its index. A
// counting pass sizes each destination buffer exactly and keeps each
// vertex's entries per row residue for the fill pass; the buffers are
// handed to the all-to-all, and the received ones (indexed by source rank)
// returned.
func routePairs(c *mpi.Comm, gridRows, gridCols int, rl *relabeled, ops *int64) [][]int32 {
	sendbuf := make([][]int32, c.Size())
	// Unsigned 32-bit divides in the per-entry loops: labels are
	// non-negative, and one DIV gives quotient and remainder.
	qr, qc := uint32(gridRows), uint32(gridCols)
	// The entries of owned id beg+i per row residue r, counted once by the
	// sizing pass and read again by the fill pass: cnts[i·qr + r].
	cnts := make([]int32, len(rl.labels)*int(qr))
	need := make([]int, len(sendbuf))
	var entries int64
	for id, row := range rl.chunks() {
		col := uint32(rl.labels[id-rl.beg]) % qc
		cnt := cnts[int(id-rl.beg)*int(qr):][:qr]
		for _, w := range row {
			cnt[uint32(w)%qr]++
		}
		for r, k := range cnt {
			if k > 0 {
				need[uint32(r)*qc+col] += 2 + int(k)
			}
		}
		entries += int64(len(row))
	}
	for dst := range sendbuf {
		sendbuf[dst] = make([]int32, 0, need[dst])
	}
	at := make([]int, qr) // the current vertex's next entry slot per residue
	for id, row := range rl.chunks() {
		wu := rl.labels[id-rl.beg]
		lc, col := int32(uint32(wu)/qc), uint32(wu)%qc
		for r, k := range cnts[int(id-rl.beg)*int(qr):][:qr] {
			if k > 0 {
				dst := uint32(r)*qc + col
				buf := append(sendbuf[dst], lc, k)
				at[r] = len(buf)
				sendbuf[dst] = buf[:len(buf)+int(k)]
			}
		}
		for _, wv := range row {
			lr, r := int32(uint32(wv)/qr), uint32(wv)%qr
			if wv >= wu {
				lr = ^lr
			}
			sendbuf[r*qc+col][at[r]] = lr
			at[r]++
		}
	}
	*ops += entries
	return c.AlltoallvInt32(sendbuf)
}

// build2D implements steps (iii)+(iv): every directed pair (w_v → w_u) of
// the relabeled graph is routed to grid rank (w_v mod qr, w_u mod qc); pairs
// with w_u > w_v form U entries, pairs with w_u < w_v form L entries. The
// task block is the L pattern for ⟨j,i,k⟩ and the U pattern for ⟨i,j,k⟩. A U
// entry (j, k) is an operand of inner index k, an L entry (k, i) likewise —
// the same array serves as the ⟨j,i,k⟩ task pattern read by rows and as the
// operand read by its row label k.
//
// The blocks are built whole (buildBlocks) and then split into classes: with
// k = c·qc + col the local column c of a U entry determines both its class,
// (c mod L/qc)·qc + col, and its key k div L = c div (L/qc) — likewise the
// local row of an L entry with L/qr — so a class is every (L/qc)-th value of
// the U rows (every (L/qr)-th of the L columns), still ascending. On a
// square grid the split is the identity.
//
// A part that is not well-formed for this rank fails the build on every
// rank: the ranks agree on it in the allreduce that sizes maxURow, so none
// is left waiting.
func build2D(c *mpi.Comm, grid *mpi.Grid, rl *relabeled, bcast bool, enum Enumeration, ops *int64) (*blocks, error) {
	got := routePairs(c, grid.Rows(), grid.Cols(), rl, ops)
	return blocksOf(c, grid.Rows(), grid.Cols(), rl.n, got, bcast, enum, ops)
}

// blocksOf is the receiving half of build2D: the blocks of this rank of a
// qr × qc grid over n vertices, from the parts routePairs delivered. The U
// block and the L pattern are built straight into arrays the state keeps:
// the task block is the L pattern, or under ⟨i,j,k⟩ the U block itself,
// which is safe as an ⟨i,j,k⟩ state is never written. Only the broadcast
// schedule, whose L classes travel, transposes the L pattern into them.
func blocksOf(c *mpi.Comm, qr, qc int, n int64, got [][]int32, bcast bool, enum Enumeration, ops *int64) (*blocks, error) {
	blk := newBlocks(qr, qc, c.Rank(), n, bcast)
	var maxRow, failed int64
	u, lRows, err := buildBlocks(got, blk.nRows, blk.nCols)
	if err != nil {
		failed = 1
	} else {
		*ops += u.nnz() + lRows.nnz()
		blk.task = lRows
		if enum == EnumIJK {
			blk.task = u
		}
		blk.taskRows = blk.task.nonEmptyRows(nil)
		for i, b := range splitClasses(u, int32(blk.L/qc)) {
			if b.nnz() > 0 || !bcast {
				blk.u[i] = b
				maxRow = max(maxRow, b.maxRow())
			}
		}
		if bcast {
			l := transpose(&lRows, kindL, blk.nCols)
			for i, b := range splitClasses(l, int32(blk.L/qr)) {
				if b.nnz() > 0 {
					blk.l[i] = cscBlock(b)
				}
			}
		}
	}
	agreed := c.AllreduceInt64s([]int64{maxRow, failed}, mpi.OpMax)
	if err != nil {
		return nil, err
	}
	if agreed[1] != 0 {
		return nil, fmt.Errorf("core: another rank received a malformed 2D redistribution part")
	}
	blk.maxURow = agreed[0]
	return blk, nil
}
