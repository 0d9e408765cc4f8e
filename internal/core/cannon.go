package core

import (
	"tc2d/internal/mpi"
)

// cannonCount runs the triangle counting phase: the initial Cannon
// alignment, then √p compute steps separated by single left/up shifts of
// the U and L blocks (§5.1, Equation 6). It returns the kernel counters and
// the per-shift kernel compute times.
//
// Alignment: the owner of U_{a,b} ships it to grid position (a, b−a), so
// that P_{x,y} starts holding U_{x,(x+y) mod q}; the owner of L_{a,b} ships
// it to (a−b, b), so P_{x,y} starts holding L_{(x+y) mod q, y}. After each
// compute step U moves one position left and L one position up, realizing
// C[task_{x,y}] = Σ_z U_{x,(x+y+z)%q} · L_{(x+y+z)%q,y}.
func cannonCount(c *mpi.Comm, grid *mpi.Grid, blk *blocks, pool *kernelPool, opt Options) (kernelCounters, []float64) {
	q := grid.Q()
	perShift := make([]float64, 0, q)
	trace := opt.Trace // per-rank parent span; nil (no-op) when untraced

	// Current operand blocks, starting from the owned ones.
	curU := blk.ublk
	curL := blk.lblk

	if opt.NoBlob {
		// Field-by-field path: three messages per block per hop, with
		// element-wise (de)serialization charged as compute.
		shiftNaive := func(rowShift bool, dist int, kind int32, dim int32, xadj, adj []int32) (int32, []int32, []int32) {
			d := dist % q
			if d == 0 {
				return dim, xadj, adj
			}
			var dst, src int
			if rowShift {
				dst = grid.RankAt(grid.Row(), grid.Col()-d)
				src = grid.RankAt(grid.Row(), grid.Col()+d)
			} else {
				dst = grid.RankAt(grid.Row()-d, grid.Col())
				src = grid.RankAt(grid.Row()+d, grid.Col())
			}
			base := tagHdr
			if kind == kindL {
				base = tagHdr + 10
			}
			sendBlockNaive(c, dst, base, kind, dim, xadj, adj)
			return recvBlockNaive(c, src, base, kind)
		}
		uDim, uX, uA := curU.rows, curU.xadj, curU.adj
		lDim, lX, lA := curL.cols, curL.xadj, curL.adj
		align := trace.StartChild("align")
		uDim, uX, uA = shiftNaive(true, grid.Row(), kindU, uDim, uX, uA)
		lDim, lX, lA = shiftNaive(false, grid.Col(), kindL, lDim, lX, lA)
		align.End()
		for z := 0; z < q; z++ {
			u := csrBlock{rows: uDim, xadj: uX, adj: uA}
			l := cscBlock{cols: lDim, xadj: lX, adj: lA}
			before := c.Stats().CompTime
			ks := trace.StartChild("kernel")
			c.Compute(func() {
				pool.run(&blk.task, blk.taskRows, &u, &l)
			})
			ks.SetAttr("step", z)
			ks.SetAttr("virtual_s", c.Stats().CompTime-before)
			ks.End()
			perShift = append(perShift, c.Stats().CompTime-before)
			if z < q-1 {
				ss := trace.StartChild("shift")
				uDim, uX, uA = shiftNaive(true, 1, kindU, uDim, uX, uA)
				lDim, lX, lA = shiftNaive(false, 1, kindL, lDim, lX, lA)
				ss.SetAttr("step", z)
				ss.End()
			}
		}
		return pool.total(), perShift
	}

	// Blob path (§5.2): each block travels as a single pre-packed byte
	// blob; decoding is pointer arithmetic into the received buffer, so a
	// forwarded block is never re-serialized.
	var ublob, lblob []byte
	es := trace.StartChild("encode")
	c.Compute(func() {
		ublob = encodeCSRBlob(kindU, curU.rows, curU.xadj, curU.adj)
		lblob = encodeCSRBlob(kindL, curL.cols, curL.xadj, curL.adj)
	})
	es.End()
	align := trace.StartChild("align")
	ublob = grid.ShiftRowLeft(ublob, grid.Row())
	lblob = grid.ShiftColUp(lblob, grid.Col())
	align.End()
	for z := 0; z < q; z++ {
		uDim, uX, uA := decodeCSRBlob(ublob, kindU)
		lDim, lX, lA := decodeCSRBlob(lblob, kindL)
		u := csrBlock{rows: uDim, xadj: uX, adj: uA}
		l := cscBlock{cols: lDim, xadj: lX, adj: lA}
		before := c.Stats().CompTime
		ks := trace.StartChild("kernel")
		c.Compute(func() {
			pool.run(&blk.task, blk.taskRows, &u, &l)
		})
		ks.SetAttr("step", z)
		ks.SetAttr("virtual_s", c.Stats().CompTime-before)
		ks.End()
		perShift = append(perShift, c.Stats().CompTime-before)
		if z < q-1 {
			ss := trace.StartChild("shift")
			ublob = grid.ShiftRowLeft(ublob, 1)
			lblob = grid.ShiftColUp(lblob, 1)
			ss.SetAttr("step", z)
			ss.End()
		}
	}
	return pool.total(), perShift
}
