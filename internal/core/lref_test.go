package core

import (
	"fmt"
	"slices"

	"tc2d/internal/mpi"
)

// No shift state keeps an L block: the L operand of rank (x,y) at step t is
// the U block of rank (y,k), k = (x+y+t) mod q, which holds the entries of
// L_{k,y} list for list. The helpers here hold that claim to the L block as
// the layout used to build it.

// parentL is the construction of the L block L_{x,y} that every shift state
// used to run and keep (the L leg of buildBlocks), kept as the reference:
// from groups [row, count, entries…] whose complemented entries are L
// entries, bucket the entries by row, then transpose the buckets into
// columns, which comes out sorted.
func parentL(got [][]int32, nRows, nCols int32) csrBlock {
	lByRow := make([]int32, nRows+1)
	for _, part := range got {
		for i := 0; i < len(part); {
			lr, k := part[i], int(part[i+1])
			for _, e := range part[i+2 : i+2+k] {
				if e < 0 {
					lByRow[lr+1]++
				}
			}
			i += 2 + k
		}
	}
	prefixSum(lByRow)
	nL := int(lByRow[nRows])
	l := newBlock(kindL, nCols, nL, 0)
	rowBkt := newBlock(kindU, nRows, nL, 0)
	copy(rowBkt.xadj, lByRow)
	rowNext := slices.Clone(lByRow[:nRows])
	for _, part := range got {
		for i := 0; i < len(part); {
			lr, k := part[i], int(part[i+1])
			for _, e := range part[i+2 : i+2+k] {
				if e < 0 {
					rowBkt.adj[rowNext[lr]] = ^e
					rowNext[lr]++
					l.xadj[^e+1]++
				}
			}
			i += 2 + k
		}
	}
	prefixSum(l.xadj)
	colNext := slices.Clone(l.xadj[:nCols])
	transposeInto(rowBkt.xadj, rowBkt.adj, colNext, l.adj)
	return l
}

// taskGroups lists the entries of a ⟨j,i,k⟩ task block — the L entries of
// its rank, by rows — as the groups of the 2D redistribution.
func taskGroups(task *csrBlock) []int32 {
	var out []int32
	for a := int32(0); a < task.rows; a++ {
		if row := task.row(a); len(row) > 0 {
			out = append(out, a, int32(len(row)))
			for _, b := range row {
				out = append(out, ^b)
			}
		}
	}
	return out
}

// refL is the reference L_{x,y} of a ⟨j,i,k⟩ shift state of rank (x,y),
// built by parentL from the rank's task block.
func refL(p *Prepared) csrBlock {
	return parentL([][]int32{taskGroups(&p.blk.task)}, p.blk.nRows, p.blk.nCols)
}

// CheckLOperands runs the alignment and shifts of a count on every rank of
// a square grid, without the kernel, once with blobs and once without
// (Options.NoBlob), and compares the L operand of every step with the
// reference: at step t, rank (x,y) must hold refL of rank ((x+y+t) mod q,
// y). It also requires that no rank keeps an L class. preps holds every
// rank's state, ⟨j,i,k⟩ shift states all; the epoch only reads them.
func CheckLOperands(c *mpi.Comm, preps []*Prepared) error {
	p := preps[c.Rank()]
	if p.bcast {
		return fmt.Errorf("rank %d: not a shift state", c.Rank())
	}
	if len(p.blk.l) != 0 {
		return fmt.Errorf("rank %d: a shift state keeps %d L classes", c.Rank(), len(p.blk.l))
	}
	grid, err := mpi.NewGrid(c, p.blk.qr, p.blk.qc)
	if err != nil {
		return err
	}
	q, x, y := grid.Rows(), grid.Row(), grid.Col()
	var bad error
	for _, opt := range []Options{{}, {NoBlob: true}} {
		ops := p.operandsFor(c, grid, opt)
		for t := 0; t < q; t++ {
			if err := ops.arrive(t); err != nil {
				return err
			}
			k, l := (x+y+t)%q, &ops.l
			ref := refL(preps[k*q+y])
			if bad == nil && (l.rows != ref.rows || !slices.Equal(l.xadj, ref.xadj) || !slices.Equal(l.adj, ref.adj)) {
				bad = fmt.Errorf("rank (%d,%d) step %d (NoBlob %v): the L operand of %d entries is not L_{%d,%d}, which has %d",
					x, y, t, opt.NoBlob, len(l.adj), k, y, len(ref.adj))
			}
		}
	}
	return bad
}

// lClasses returns the L classes of this rank: the state's own, or on a
// shift state that keeps none the one it reads, L_{x,y}: rank (y,x)'s U
// block, which every rank sends to its transposed rank. Collective when the
// states keep no L.
func lClasses(c *mpi.Comm, p *Prepared) ([]cscBlock, error) {
	b := p.blk
	if len(b.l) > 0 || p.bcast {
		return b.l, nil
	}
	const tag = 77
	q := b.qr
	mate := b.col*q + b.row
	blob := b.u[0].blob()
	if mate != c.Rank() {
		c.SendOwn(mate, tag, blob)
		blob = c.Recv(mate, tag)
	}
	xadj, adj, err := decodeCSRBlob(blob, kindU, b.nCols)
	if err != nil {
		return nil, fmt.Errorf("rank %d: the transposed rank's U block: %w", c.Rank(), err)
	}
	return []cscBlock{{rows: b.nCols, xadj: xadj, adj: adj}}, nil
}

// parentBlob returns this rank's state in the snapshot kind every Cannon
// state was written as while shift states kept their L block: the Cannon
// blob with the L block L_{x,y} after the U block, taken from rank (y,x)'s
// U block. Other states encode as they are. Collective on shift states that
// keep no L.
func parentBlob(c *mpi.Comm, p *Prepared) ([]byte, error) {
	blob := EncodePrepared(p)
	if p.stateKind() != kindCannonState {
		return blob, nil
	}
	l, err := lClasses(c, p)
	if err != nil {
		return nil, err
	}
	e := &encoder{b: blob}
	e.b[8] = kindCannonLState
	e.csr(l[0].byCols())
	return e.b, nil
}
