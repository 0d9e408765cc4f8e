package core

import (
	"fmt"

	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

// mover names how the operand blocks of a compute step reach a rank. It is
// the only thing the two schedules differ in: the steps, the kernel and the
// resident layout are shared.
type mover int

const (
	// moveShift is Cannon's schedule (§5.1, Equation 6) on a q × q grid.
	// Alignment: the owner of U_{a,b} ships it to grid position (a, b−a), so
	// that P_{x,y} starts holding U_{x,(x+y) mod q}; the owner of L_{a,b}
	// ships it to (a−b, b), so P_{x,y} starts holding L_{(x+y) mod q, y}.
	// After each compute step U moves one position left and L one position
	// up, realizing C[task_{x,y}] = Σ_z U_{x,(x+y+z)%q} · L_{(x+y+z)%q,y}.
	// Each block travels as its resident bytes, which are a §5.2 blob: the
	// owner packs nothing, decoding is pointer arithmetic into the received
	// buffer, and a forwarded block is never re-serialized.
	moveShift mover = iota
	// moveBcast is SUMMA's schedule on any qr × qc grid: at step t the rank
	// in grid column t mod qc that owns U class t broadcasts its resident
	// bytes along its grid row, the rank in grid row t mod qr that owns L
	// class t along its grid column. A class nobody created still travels,
	// as the layout's empty block, so the collectives stay aligned across
	// ranks.
	moveBcast
	// moveNaive is moveShift without the blob (Options.NoBlob, the §5.2
	// ablation): three messages per block per hop, with element-wise
	// (de)serialization between them.
	moveNaive
)

// operands delivers the U and L blocks of each compute step.
type operands struct {
	c     *mpi.Comm
	grid  *mpi.Grid
	blk   *blocks
	how   mover
	trace *obs.Span // per-rank parent span; nil (no-op) when untraced

	// The travelling blobs (moveShift, moveBcast): resident bytes of this
	// rank or another, shared read-only until the epoch ends.
	ublob, lblob []byte
	// The operands of the current step: views into the blobs, or the arrays
	// moveNaive decoded.
	u csrBlock
	l cscBlock
}

// view points u and l into the blobs just received for step t. A blob that
// does not decode to this rank's dimensions is a bug or a hostile peer; the
// rank panics, naming itself, the step and the operand.
func (o *operands) view(t int) {
	o.u.rows, o.l.rows = o.blk.nRows, o.blk.nCols
	var err error
	if o.u.xadj, o.u.adj, err = decodeCSRBlob(o.ublob, kindU, o.u.rows); err != nil {
		panic(fmt.Errorf("core: rank %d step %d: U operand: %w", o.c.Rank(), t, err))
	}
	if o.l.xadj, o.l.adj, err = decodeCSRBlob(o.lblob, kindL, o.l.rows); err != nil {
		panic(fmt.Errorf("core: rank %d step %d: L operand: %w", o.c.Rank(), t, err))
	}
}

// shiftNaive moves both operands the given distances (U left, L up) field by
// field.
func (o *operands) shiftNaive(uDist, lDist int) {
	g, q := o.grid, o.grid.Rows()
	if d := uDist % q; d != 0 {
		sendBlockNaive(o.c, g.RankAt(g.Row(), g.Col()-d), tagHdr, kindU, o.u.rows, o.u.xadj, o.u.adj)
		o.u.rows, o.u.xadj, o.u.adj = recvBlockNaive(o.c, g.RankAt(g.Row(), g.Col()+d), tagHdr, kindU)
	}
	if d := lDist % q; d != 0 {
		sendBlockNaive(o.c, g.RankAt(g.Row()-d, g.Col()), tagHdr+10, kindL, o.l.rows, o.l.xadj, o.l.adj)
		o.l.rows, o.l.xadj, o.l.adj = recvBlockNaive(o.c, g.RankAt(g.Row()+d, g.Col()), tagHdr+10, kindL)
	}
}

// arrive makes u and l the operands of step t: class t under moveBcast,
// class (row + col + t) mod q under the shifts. Steps must be asked for in
// order.
func (o *operands) arrive(t int) {
	blk, g := o.blk, o.grid
	switch {
	case o.how == moveBcast:
		bs := o.trace.StartChild("bcast")
		uRoot, lRoot := t%blk.qc, t%blk.qr
		o.ublob, o.lblob = nil, nil
		if blk.col == uRoot {
			b := &blk.u[t/blk.qc]
			if b.xadj == nil {
				b = &blk.emptyU
			}
			o.ublob = b.blob()
		}
		o.ublob = g.BcastRow(uRoot, o.ublob)
		if blk.row == lRoot {
			b := &blk.l[t/blk.qr]
			if b.xadj == nil {
				b = &blk.emptyL
			}
			o.lblob = b.byCols().blob()
		}
		o.lblob = g.BcastCol(lRoot, o.lblob)
		bs.SetAttr("step", t)
		bs.End()
		o.view(t)

	case t > 0: // one position left and up
		ss := o.trace.StartChild("shift")
		if o.how == moveNaive {
			o.shiftNaive(1, 1)
		} else {
			o.ublob = g.ShiftRowLeft(o.ublob, 1)
			o.lblob = g.ShiftColUp(o.lblob, 1)
			o.view(t)
		}
		ss.SetAttr("step", t-1)
		ss.End()

	case o.how == moveNaive: // alignment of the owned blocks
		o.u, o.l = blk.u[0], blk.l[0]
		align := o.trace.StartChild("align")
		o.shiftNaive(blk.row, blk.col)
		align.End()

	default: // alignment of the owned blocks, as their resident bytes
		align := o.trace.StartChild("align")
		o.ublob = g.ShiftRowLeft(blk.u[0].blob(), blk.row)
		o.lblob = g.ShiftColUp(blk.l[0].byCols().blob(), blk.col)
		align.End()
		o.view(t)
	}
}

// countSteps runs the triangle counting phase over the resident blocks:
// lcm(qr, qc) compute steps — √p on the square grid — each multiplying the
// task block by one class of U and L operands, whichever way the schedule
// brings them here. It returns the kernel counters and the per-step kernel
// compute times; the kernel's scratch goes back to its slot when the steps
// are done.
func (p *Prepared) countSteps(c *mpi.Comm, grid *mpi.Grid, opt Options) (kernelCounters, []float64) {
	blk := p.blk
	kn := p.kernel(opt)
	ops := operands{c: c, grid: grid, blk: blk, trace: opt.Trace}
	switch {
	case p.bcast:
		ops.how = moveBcast
	case opt.NoBlob:
		ops.how = moveNaive
	}
	perShift := make([]float64, 0, blk.L)
	for t := 0; t < blk.L; t++ {
		ops.arrive(t)
		before := c.Stats().CompTime
		ks := opt.Trace.StartChild("kernel")
		kn.run(&blk.task, blk.taskRows, &ops.u, &ops.l)
		ks.SetAttr("step", t)
		ks.End()
		perShift = append(perShift, c.Stats().CompTime-before)
	}
	kn.release()
	return kn.kc, perShift
}
