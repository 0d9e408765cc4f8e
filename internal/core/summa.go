package core

import (
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// CountSUMMA is the rectangular-grid extension the paper's conclusion
// proposes: the same 2D cyclic task decomposition, scheduled with SUMMA's
// broadcast pattern instead of Cannon's shifts, so the processor count only
// needs to factor as qr × qc rather than being a perfect square (any p
// works; primes degenerate to 1 × p).
//
// The inner dimension k is processed in lcm(qr, qc) residue classes. At
// step t, the rank in grid column t mod qc owning the U entries with
// k ≡ t broadcasts that bucket along its grid row, the rank in grid row
// t mod qr owning the matching L entries broadcasts along its column, and
// every rank runs the map-based kernel over its task block. Buckets store
// k div lcm as the intersection key, so both operands agree on local
// indices without further translation.
func CountSUMMA(c *mpi.Comm, in *dgraph.Dist1D, opt Options) (*Result, error) {
	qr, qc := mpi.FactorGrid(c.Size())
	return CountSUMMAGrid(c, in, qr, qc, opt)
}

// CountSUMMAGrid is CountSUMMA with an explicit qr × qc grid shape. Like
// Count, it composes PrepareSUMMAGrid with CountPrepared; query-many callers
// should hold the Prepared state and call CountPrepared directly.
func CountSUMMAGrid(c *mpi.Comm, in *dgraph.Dist1D, qr, qc int, opt Options) (*Result, error) {
	prep, err := PrepareSUMMAGrid(c, in, qr, qc, opt)
	if err != nil {
		return nil, err
	}
	res, err := CountPrepared(c, prep, opt)
	if err != nil {
		return nil, err
	}
	mergePrepare(res, prep)
	return res, nil
}

func lcm(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// summaBlocks is the per-rank state for the SUMMA schedule: the task block
// plus the k-residue-class buckets of the owned U and L entries this rank
// will broadcast.
type summaBlocks struct {
	nRows int32 // locals with row residue (task/U row dimension)
	nCols int32 // locals with col residue (task/L col dimension)
	task  csrBlock
	rows  []int32 // doubly-sparse non-empty task rows
	// uBucket[t] exists for t%qc == mycol: CSR rows j/qr → keys k/L,
	// covering the owned U entries with k ≡ t (mod L).
	uBucket map[int]csrBlock
	// lBucket[t] exists for t%qr == myrow: CSC cols i/qc → keys k/L.
	lBucket map[int]cscBlock
	maxURow int64
}

// buildSUMMA routes the relabeled graph onto the rectangular grid: U entry
// (j, k) → rank (j mod qr, k mod qc); L entry (j, i) → rank
// (j mod qr, i mod qc) both as a task and, viewed as operand row k=j, into
// the broadcast bucket of class j mod L on the same rank... which is only
// correct because the operand's row residue class mod qr equals the owner's
// grid row. Buckets pre-store k div L keys so broadcast receivers can use
// them directly.
//
// The blocks are built exactly as on the square grid (buildBlocks) and then
// split: with k = c·qc + y the local column c of a U entry determines both
// its class, (c mod L/qc)·qc + y, and its key k div L = c div (L/qc) —
// likewise the local row of an L entry with L/qr — so a bucket is every
// (L/qc)-th value of the U rows (every (L/qr)-th of the L columns), still
// ascending. Only non-empty buckets exist.
func buildSUMMA(c *mpi.Comm, grid *mpi.RectGrid, rl *relabeled, L int, enum Enumeration, ops *int64) *summaBlocks {
	qr, qc := grid.Rows(), grid.Cols()
	got := routePairs(c, qr, qc, rl, ops)

	blk := &summaBlocks{
		nRows:   numWithResidue(rl.n, qr, grid.Row()),
		nCols:   numWithResidue(rl.n, qc, grid.Col()),
		uBucket: make(map[int]csrBlock),
		lBucket: make(map[int]cscBlock),
	}
	var maxRow int64
	c.Compute(func() {
		task, u, l := buildBlocks(got, int32(qr), int32(qc), blk.nRows, blk.nCols, enum)
		*ops += u.nnz() + int64(len(l.adj))
		blk.task = task
		blk.rows = task.nonEmptyRows(nil)
		for cls, b := range splitClasses(u, int32(L/qc)) {
			if b.nnz() > 0 {
				blk.uBucket[cls*qc+grid.Col()] = b
				maxRow = max(maxRow, b.maxRow())
			}
		}
		for cls, b := range splitClasses(csrBlock{rows: l.cols, xadj: l.xadj, adj: l.adj}, int32(L/qr)) {
			if b.nnz() > 0 {
				blk.lBucket[cls*qr+grid.Row()] = cscBlock{cols: b.rows, xadj: b.xadj, adj: b.adj}
			}
		}
	})
	blk.maxURow = c.AllreduceInt64(maxRow, mpi.OpMax)
	return blk
}

// splitClasses splits a block into s blocks of the same row dimension: a
// value v lands in block v mod s as v div s, in row order, so sorted rows
// stay sorted. Count, then fill; s == 1 returns the block itself.
func splitClasses(b csrBlock, s int32) []csrBlock {
	if s == 1 {
		return []csrBlock{b}
	}
	out := make([]csrBlock, s)
	for cls := range out {
		out[cls] = csrBlock{rows: b.rows, xadj: make([]int32, b.rows+1)}
	}
	for a := int32(0); a < b.rows; a++ {
		for _, v := range b.row(a) {
			out[v%s].xadj[a+1]++
		}
	}
	for cls := range out {
		prefixSum(out[cls].xadj)
		out[cls].adj = make([]int32, out[cls].xadj[b.rows])
	}
	// Rows are visited in order, so each block's write position simply
	// runs on from row to row.
	fill := make([]int32, s)
	for _, v := range b.adj {
		out[v%s].adj[fill[v%s]] = v / s
		fill[v%s]++
	}
	return out
}

// summaCount runs the lcm(qr,qc) broadcast-and-multiply steps.
func summaCount(c *mpi.Comm, grid *mpi.RectGrid, blk *summaBlocks, L int, pool *kernelPool, opt Options) (kernelCounters, []float64) {
	perShift := make([]float64, 0, L)
	trace := opt.Trace // per-rank parent span; nil (no-op) when untraced

	// Deterministic step order; empty buckets still broadcast an empty
	// block so the collective stays aligned across ranks.
	for t := 0; t < L; t++ {
		uRoot := t % grid.Cols()
		lRoot := t % grid.Rows()

		bs := trace.StartChild("bcast")
		var ublob, lblob []byte
		if grid.Col() == uRoot {
			b, ok := blk.uBucket[t]
			if !ok {
				b = csrBlock{rows: blk.nRows, xadj: make([]int32, blk.nRows+1)}
			}
			c.Compute(func() { ublob = encodeCSRBlob(kindU, b.rows, b.xadj, b.adj) })
		}
		ublob = grid.BcastRow(uRoot, ublob)
		if grid.Row() == lRoot {
			b, ok := blk.lBucket[t]
			if !ok {
				b = cscBlock{cols: blk.nCols, xadj: make([]int32, blk.nCols+1)}
			}
			c.Compute(func() { lblob = encodeCSRBlob(kindL, b.cols, b.xadj, b.adj) })
		}
		lblob = grid.BcastCol(lRoot, lblob)
		bs.SetAttr("step", t)
		bs.End()

		uDim, uX, uA := decodeCSRBlob(ublob, kindU)
		lDim, lX, lA := decodeCSRBlob(lblob, kindL)
		u := csrBlock{rows: uDim, xadj: uX, adj: uA}
		l := cscBlock{cols: lDim, xadj: lX, adj: lA}
		before := c.Stats().CompTime
		ks := trace.StartChild("kernel")
		c.Compute(func() {
			pool.run(&blk.task, blk.rows, &u, &l)
		})
		ks.SetAttr("step", t)
		ks.SetAttr("virtual_s", c.Stats().CompTime-before)
		ks.End()
		perShift = append(perShift, c.Stats().CompTime-before)
	}
	return pool.total(), perShift
}
