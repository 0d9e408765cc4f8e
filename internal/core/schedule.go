package core

import (
	"fmt"

	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

// mover names how the operand blocks of a compute step reach a rank. It is
// the only thing the two schedules differ in: the steps and the kernel are
// shared, and so is the layout, but for the L classes, which only the
// broadcast schedule keeps.
type mover int

const (
	// moveShift is Cannon's schedule (§5.1, Equation 6) on a q × q grid,
	// realizing C[task_{x,y}] = Σ_z U_{x,(x+y+z)%q} · L_{(x+y+z)%q,y}. L_{a,b}
	// holds the entries (w_v → w_u), w_u < w_v, with w_v ≡ a and w_u ≡ b by
	// columns w_u div q: the very lists of the U block of rank (b, a), which
	// holds those entries by rows w_u div q. So no rank keeps an L block: the
	// U blocks play both operands. Alignment: the owner of U_{a,b} ships it
	// to grid position (a, b−a) as a U operand, and to (b−a, a) as an L one,
	// so that P_{x,y} starts holding U_{x,(x+y) mod q} and L_{(x+y) mod q,y} =
	// U_{y,(x+y) mod q}; a rank on the diagonal gets both from the same
	// owner and is sent one. After each compute step U moves one position
	// left and L one position up. Each block travels as its resident bytes,
	// which are a §5.2 blob: the owner packs nothing, decoding is pointer
	// arithmetic into the received buffer, and a forwarded block is never
	// re-serialized.
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

// tagAlignL is the tag of the L alignment of the shift schedules: a U block
// sent across the diagonal as the L operand it is (moveNaive uses tagHdr+10
// onwards).
const tagAlignL = tagHdr + 20

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
// does not decode to this rank's dimensions is a bug or a hostile peer: the
// error names this rank, the step and the operand. Under the shifts the L
// operand is a U block.
func (o *operands) view(t int) error {
	o.u.rows, o.l.rows = o.blk.nRows, o.blk.nCols
	lKind := kindU
	if o.how == moveBcast {
		lKind = kindL
	}
	var err error
	if o.u.xadj, o.u.adj, err = decodeCSRBlob(o.ublob, kindU, o.u.rows); err != nil {
		return fmt.Errorf("core: rank %d step %d: U operand: %w", o.c.Rank(), t, err)
	}
	if o.l.xadj, o.l.adj, err = decodeCSRBlob(o.lblob, lKind, o.l.rows); err != nil {
		return fmt.Errorf("core: rank %d step %d: L operand: %w", o.c.Rank(), t, err)
	}
	return nil
}

// shiftNaive moves both operands the given distances (U left, L up) field by
// field.
func (o *operands) shiftNaive(uDist, lDist int) {
	g, q := o.grid, o.grid.Rows()
	if d := uDist % q; d != 0 {
		sendBlockNaive(o.c, g.RankAt(g.Row(), g.Col()-d), tagHdr, o.u.xadj, o.u.adj)
		o.u.rows, o.u.xadj, o.u.adj = recvBlockNaive(o.c, g.RankAt(g.Row(), g.Col()+d), tagHdr)
	}
	if d := lDist % q; d != 0 {
		sendBlockNaive(o.c, g.RankAt(g.Row()-d, g.Col()), tagHdr+10, o.l.xadj, o.l.adj)
		o.l.rows, o.l.xadj, o.l.adj = recvBlockNaive(o.c, g.RankAt(g.Row()+d, g.Col()), tagHdr+10)
	}
}

// alignL sends this rank's U block, own, to the rank whose first L operand
// it is, (col − row, row), unless that rank is on the diagonal, and makes l
// (lblob under moveShift) the L operand of step 0: U_{col,row+col}, which a
// rank on the diagonal already received as its U operand. Call it after the
// U alignment.
func (o *operands) alignL(own *csrBlock) {
	g, x, y := o.grid, o.grid.Row(), o.grid.Col()
	q := g.Rows()
	if dst := (y - x + q) % q; dst != x {
		if o.how == moveNaive {
			sendBlockNaive(o.c, g.RankAt(dst, x), tagHdr+10, own.xadj, own.adj)
		} else {
			o.c.SendOwn(g.RankAt(dst, x), tagAlignL, own.blob())
		}
	}
	switch {
	case x == y && o.how == moveNaive:
		o.l = cscBlock(o.u)
	case x == y:
		o.lblob = o.ublob
	case o.how == moveNaive:
		o.l.rows, o.l.xadj, o.l.adj = recvBlockNaive(o.c, g.RankAt(y, x+y), tagHdr+10)
	default:
		o.lblob = o.c.Recv(g.RankAt(y, x+y), tagAlignL)
	}
}

// arrive makes u and l the operands of step t: class t under moveBcast,
// class (row + col + t) mod q under the shifts. Steps must be asked for in
// order.
func (o *operands) arrive(t int) error {
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

	case t > 0: // one position left and up
		ss := o.trace.StartChild("shift")
		if o.how == moveNaive {
			o.shiftNaive(1, 1)
		} else {
			o.ublob = g.ShiftRowLeft(o.ublob, 1)
			o.lblob = g.ShiftColUp(o.lblob, 1)
		}
		ss.SetAttr("step", t-1)
		ss.End()

	default: // alignment of the owned U block, in both roles
		align := o.trace.StartChild("align")
		own := &blk.u[0]
		if o.how == moveNaive {
			o.u = *own
			o.shiftNaive(blk.row, 0)
		} else {
			o.ublob = g.ShiftRowLeft(own.blob(), blk.row)
		}
		o.alignL(own)
		align.End()
	}
	if o.how == moveNaive {
		return nil
	}
	return o.view(t)
}

// operandsFor returns the mover of p's operands for one count under opt:
// lcm(qr, qc) compute steps — √p on the square grid — whose operands arrive
// in order, whichever way the schedule moves them.
func (p *Prepared) operandsFor(c *mpi.Comm, grid *mpi.Grid, opt Options) operands {
	ops := operands{c: c, grid: grid, blk: p.blk, trace: opt.Trace}
	switch {
	case p.bcast:
		ops.how = moveBcast
	case opt.NoBlob:
		ops.how = moveNaive
	}
	return ops
}

// countSteps runs the triangle counting phase over the resident blocks: each
// compute step multiplies the task block by one class of U and L operands.
// It returns the kernel counters and the per-step kernel compute times, or
// the error of the first operand that does not decode; the kernel's scratch
// goes back to its slot when the steps are done.
func (p *Prepared) countSteps(c *mpi.Comm, grid *mpi.Grid, opt Options) (kernelCounters, []float64, error) {
	blk := p.blk
	kn := p.kernel(opt)
	ops := p.operandsFor(c, grid, opt)
	perShift := make([]float64, 0, blk.L)
	for t := 0; t < blk.L; t++ {
		if err := ops.arrive(t); err != nil {
			kn.release() // not deferred: a kernel that panicked is never released
			return kernelCounters{}, nil, err
		}
		before := c.Stats().CompTime
		ks := opt.Trace.StartChild("kernel")
		kn.run(&blk.task, blk.taskRows, &ops.u, &ops.l)
		ks.SetAttr("step", t)
		ks.End()
		perShift = append(perShift, c.Stats().CompTime-before)
	}
	kn.release()
	return kn.kc, perShift, nil
}
