package core

// Dynamic-update support: the resident write path. A Prepared value can
// splice batches of already-labeled edge insertions and deletions into its
// resident blocks and answer row-adjacency queries, so the internal/delta
// subsystem can validate update batches, run its delta-counting passes and
// keep the triangle/edge/wedge invariants exact without re-running the
// preprocessing pipeline. Crucially, the 2D cyclic placement of an entry
// depends only on the endpoint labels — which updates never change — so a
// batch never moves data between ranks: every rank splices exactly the
// directed entries its own blocks hold.
//
// Everything in this file mutates the resident state in place and is
// therefore EXCLUSIVE: it may only run inside a write epoch (World.Run),
// never concurrently with the read-only CountPrepared. The split is what
// lets the epoch scheduler run counting queries concurrently.

import (
	"fmt"
	"slices"
	"sort"

	"tc2d/internal/mpi"
)

// rowMirror is the per-rank row-major view of this rank's block of the
// (relabeled) adjacency matrix in global labels: local row v/rowMod holds
// the neighbours of row-class vertex v that fall in this rank's column
// residue class, sorted ascending. The counting structures store the same
// entries split into U/L (and, for SUMMA, per-broadcast-class buckets) in
// local indices; the mirror is the one place a whole row can be read or
// probed directly. It exists only on clusters that take updates — built
// lazily by EnsureAdjacency — and is spliced in lockstep with the blocks.
type rowMirror struct {
	rowMod, colMod int // residue moduli of rows and columns
	rowRes, colRes int // this rank's residues
	blk            csrBlock
}

// GridShape returns the process-grid factorization the state was prepared
// for — qr × qc, with qr == qc for the Cannon schedule — and whether the
// SUMMA schedule is used.
func (p *Prepared) GridShape() (qr, qc int, summa bool) {
	if p.blk != nil {
		return p.blk.q, p.blk.q, false
	}
	return p.qr, p.qc, true
}

// Labels returns the retained degree-relabel permutation: labels[i] is the
// current label of cyclic id beg+i (see CyclicID, computed over BaseN).
// The map covers the base region [0, BaseN) only — overflow ids are their
// own labels and need no retained state. The slice is owned by the
// Prepared value; callers must not modify it.
func (p *Prepared) Labels() (beg int32, labels []int32) { return p.labelBeg, p.labels }

// SetLabels replaces the retained permutation. The rebuild path uses it to
// fold the fresh pipeline's permutation (which maps the previous label
// space) back into original-vertex space, keeping update routing a single
// composition deep no matter how many rebuilds have run.
func (p *Prepared) SetLabels(beg int32, labels []int32) { p.labelBeg, p.labels = beg, labels }

// operandClasses returns the resident operand entries in the form both
// schedules share: U blocks (rows → keys) and L blocks (columns → keys) by
// class t, where key k of class t is label k·L + t. The square grid is the
// one-class case — L = q, the U block is class y, the L block class x.
func (p *Prepared) operandClasses() (qr, qc, L, nRows int32, u map[int]csrBlock, l map[int]cscBlock) {
	if b := p.blk; b != nil {
		q := int32(b.q)
		return q, q, q, b.nRowsX, map[int]csrBlock{b.y: b.ublk}, map[int]cscBlock{b.x: b.lblk}
	}
	return int32(p.qr), int32(p.qc), int32(p.lc), p.sblk.nRows, p.sblk.uBucket, p.sblk.lBucket
}

// EnsureAdjacency builds the row-adjacency mirror from the resident blocks
// if it does not exist yet. Purely local work (no communication); charged
// as compute.
//
// A mirror row is the row's L part (labels below the row vertex) followed
// by its U part (labels above). Rows are counted, then the L columns are
// transposed in — ascending, see transposeInto; a row's L entries all sit in
// one class — and the U rows appended. Only a rank holding several U classes
// has to sort, and only the U parts.
func (p *Prepared) EnsureAdjacency(c *mpi.Comm) {
	if p.mirror != nil {
		return
	}
	qr, qc, L, nRows, uBucket, lBucket := p.operandClasses()
	m := &rowMirror{rowMod: int(qr), colMod: int(qc), rowRes: c.Rank() / int(qc), colRes: c.Rank() % int(qc)}
	c.Compute(func() {
		blk := csrBlock{rows: nRows, xadj: make([]int32, nRows+1)}
		// An L key k of class t is the row label k·L + t, so local row
		// k·(L/qr) + t/qr.
		step := L / qr
		for t, b := range lBucket {
			off := int32(t) / qr
			for _, k := range b.adj {
				blk.xadj[k*step+off+1]++
			}
		}
		for _, b := range uBucket {
			for a := int32(0); a < b.rows; a++ {
				blk.xadj[a+1] += b.xadj[a+1] - b.xadj[a]
			}
		}
		prefixSum(blk.xadj)
		blk.adj = make([]int32, blk.xadj[nRows])
		next := slices.Clone(blk.xadj[:nRows])
		for t, b := range lBucket {
			off := int32(t) / qr
			for i := int32(0); i < b.cols; i++ {
				for _, k := range b.col(i) {
					r := k*step + off
					blk.adj[next[r]] = i*qc + int32(m.colRes)
					next[r]++
				}
			}
		}
		var uBeg []int32 // where each row's U part starts, if it needs sorting
		if len(uBucket) > 1 {
			uBeg = slices.Clone(next)
		}
		for t, b := range uBucket {
			for a := int32(0); a < b.rows; a++ {
				for _, k := range b.row(a) {
					blk.adj[next[a]] = k*L + int32(t)
					next[a]++
				}
			}
		}
		for a, beg := range uBeg {
			slices.Sort(blk.adj[beg:blk.xadj[a+1]])
		}
		m.blk = blk
	})
	p.mirror = m
}

// MirrorShape returns the residue geometry of the row mirror. Valid only
// after EnsureAdjacency.
func (p *Prepared) MirrorShape() (rowMod, colMod, rowRes, colRes int) {
	m := p.mirror
	return m.rowMod, m.colMod, m.rowRes, m.colRes
}

// AdjRow returns the mirror row of global label v: v's neighbours in this
// rank's column residue class, as sorted global labels. v must belong to
// this rank's row residue class. The slice aliases resident state — read
// only, and invalidated by the next Splice.
func (p *Prepared) AdjRow(v int32) []int32 {
	return p.mirror.blk.row(v / int32(p.mirror.rowMod))
}

// HasEdgeLocal reports whether the directed entry (v → u) is present in
// this rank's block; v must be row-class and u column-class local.
func (p *Prepared) HasEdgeLocal(v, u int32) bool {
	row := p.AdjRow(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
	return i < len(row) && row[i] == u
}

// AdjustTotals folds a batch's edge-count and wedge-count deltas into the
// resident global invariants. Every rank must apply identical deltas, as
// the values are replicated.
func (p *Prepared) AdjustTotals(dM, dWedges int64) {
	p.m += dM
	p.wedges += dWedges
}

// sortEdits orders (row, value) edit pairs row-major so spliceCSR can
// consume them in one pass.
func sortEdits(e [][2]int32) {
	sort.Slice(e, func(i, j int) bool {
		if e[i][0] != e[j][0] {
			return e[i][0] < e[j][0]
		}
		return e[i][1] < e[j][1]
	})
}

// spliceCSR rebuilds a CSR block with per-row edits in one linear pass:
// rows without edits are copied wholesale, edited rows are merged with
// their sorted insertions minus their removals. ins and del are (row,
// value) pairs and are sorted in place. Panics if a removal names a
// missing value or an insertion duplicates an existing one — the
// distributed validation pass guarantees neither happens.
func spliceCSR(b *csrBlock, ins, del [][2]int32) {
	if len(ins) == 0 && len(del) == 0 {
		return
	}
	sortEdits(ins)
	sortEdits(del)
	newAdj := make([]int32, 0, len(b.adj)+len(ins)-len(del))
	newXadj := make([]int32, b.rows+1)
	ii, di := 0, 0
	for a := int32(0); a < b.rows; a++ {
		row := b.row(a)
		if (ii >= len(ins) || ins[ii][0] != a) && (di >= len(del) || del[di][0] != a) {
			newAdj = append(newAdj, row...)
			newXadj[a+1] = int32(len(newAdj))
			continue
		}
		ri := 0
		for ri < len(row) || (ii < len(ins) && ins[ii][0] == a) {
			if ii < len(ins) && ins[ii][0] == a && (ri >= len(row) || ins[ii][1] <= row[ri]) {
				if ri < len(row) && ins[ii][1] == row[ri] {
					panic("core: splice insert of an existing entry")
				}
				newAdj = append(newAdj, ins[ii][1])
				ii++
				continue
			}
			v := row[ri]
			ri++
			if di < len(del) && del[di][0] == a && del[di][1] == v {
				di++
				continue
			}
			newAdj = append(newAdj, v)
		}
		if di < len(del) && del[di][0] == a {
			panic("core: splice delete of a missing entry")
		}
		newXadj[a+1] = int32(len(newAdj))
	}
	if ii != len(ins) || di != len(del) {
		panic("core: splice edit referenced an out-of-range row")
	}
	b.xadj, b.adj = newXadj, newAdj
}

// spliceCSC is spliceCSR for a column-stored block; edits are (column,
// value) pairs.
func spliceCSC(b *cscBlock, ins, del [][2]int32) {
	tmp := csrBlock{rows: b.cols, xadj: b.xadj, adj: b.adj}
	spliceCSR(&tmp, ins, del)
	b.xadj, b.adj = tmp.xadj, tmp.adj
}

// Splice applies the effective, validated batch to the resident state. The
// full insertion and deletion lists (canonical label pairs, wa < wb) are
// presented to every rank; each rank splices exactly the directed entries
// its blocks own — the U entry at the (wa → wb) owner and the L entry at
// the (wb → wa) owner — keeping the task block, the doubly-sparse row
// list, the row mirror and the kernel-sizing maximum row length in sync.
// The only communication is one allreduce refreshing that maximum.
func (p *Prepared) Splice(c *mpi.Comm, ins, del [][2]int32) {
	if len(ins) == 0 && len(del) == 0 {
		return
	}
	var maxRow int64
	c.Compute(func() {
		if p.blk != nil {
			p.spliceCannon(ins, del)
		} else {
			p.spliceSUMMA(c.Rank(), ins, del)
		}
		maxRow = p.localMaxURow()
	})
	max := c.AllreduceInt64(maxRow, mpi.OpMax)
	if p.blk != nil {
		p.blk.maxURow = max
	} else {
		p.sblk.maxURow = max
	}
}

func (p *Prepared) spliceCannon(ins, del [][2]int32) {
	blk := p.blk
	q := int32(blk.q)
	x, y := int32(blk.x), int32(blk.y)
	var uIns, uDel, lIns, lDel, tIns, tDel, mIns, mDel [][2]int32
	route := func(edges [][2]int32, u, l, t, m *[][2]int32) {
		for _, e := range edges {
			wa, wb := e[0], e[1]
			if wa%q == x && wb%q == y { // U entry (wa → wb)
				*u = append(*u, [2]int32{wa / q, wb / q})
				*m = append(*m, [2]int32{wa / q, wb})
				if p.enum == EnumIJK {
					*t = append(*t, [2]int32{wa / q, wb / q})
				}
			}
			if wb%q == x && wa%q == y { // L entry (wb → wa), CSC by column
				*l = append(*l, [2]int32{wa / q, wb / q})
				*m = append(*m, [2]int32{wb / q, wa})
				if p.enum == EnumJIK {
					*t = append(*t, [2]int32{wb / q, wa / q})
				}
			}
		}
	}
	route(ins, &uIns, &lIns, &tIns, &mIns)
	route(del, &uDel, &lDel, &tDel, &mDel)
	if p.snap != nil {
		markRows(p.snap.uRows, uIns, uDel)
		markRows(p.snap.lCols, lIns, lDel)
		markRows(p.snap.tRows, tIns, tDel)
	}
	spliceCSR(&blk.ublk, uIns, uDel)
	spliceCSC(&blk.lblk, lIns, lDel)
	spliceCSR(&blk.task, tIns, tDel)
	blk.taskRows = blk.task.nonEmptyRows()
	if p.mirror != nil {
		spliceCSR(&p.mirror.blk, mIns, mDel)
	}
}

func (p *Prepared) spliceSUMMA(rank int, ins, del [][2]int32) {
	blk := p.sblk
	qr, qc, L := int32(p.qr), int32(p.qc), int32(p.lc)
	x, y := int32(rank/p.qc), int32(rank%p.qc)
	type edits struct{ ins, del [][2]int32 }
	uEd := map[int]*edits{}
	lEd := map[int]*edits{}
	bucket := func(m map[int]*edits, t int) *edits {
		ed, ok := m[t]
		if !ok {
			ed = &edits{}
			m[t] = ed
		}
		return ed
	}
	var tIns, tDel, mIns, mDel [][2]int32
	route := func(edges [][2]int32, isIns bool, t, m *[][2]int32) {
		for _, e := range edges {
			wa, wb := e[0], e[1]
			if wa%qr == x && wb%qc == y { // U entry (wa → wb): class wb mod L
				ed := bucket(uEd, int(wb%L))
				pair := [2]int32{wa / qr, wb / L}
				if isIns {
					ed.ins = append(ed.ins, pair)
				} else {
					ed.del = append(ed.del, pair)
				}
				*m = append(*m, [2]int32{wa / qr, wb})
				if p.enum == EnumIJK {
					*t = append(*t, [2]int32{wa / qr, wb / qc})
				}
			}
			if wb%qr == x && wa%qc == y { // L entry (wb → wa): class wb mod L
				ed := bucket(lEd, int(wb%L))
				pair := [2]int32{wa / qc, wb / L}
				if isIns {
					ed.ins = append(ed.ins, pair)
				} else {
					ed.del = append(ed.del, pair)
				}
				*m = append(*m, [2]int32{wb / qr, wa})
				if p.enum == EnumJIK {
					*t = append(*t, [2]int32{wb / qr, wa / qc})
				}
			}
		}
	}
	route(ins, true, &tIns, &mIns)
	route(del, false, &tDel, &mDel)
	if p.snap != nil {
		for t, ed := range uEd {
			markRows(p.snap.bucketRows(p.snap.uBuck, t), ed.ins, ed.del)
		}
		for t, ed := range lEd {
			markRows(p.snap.bucketRows(p.snap.lBuck, t), ed.ins, ed.del)
		}
		markRows(p.snap.tRows, tIns, tDel)
	}
	for t, ed := range uEd {
		b, ok := blk.uBucket[t]
		if !ok {
			b = csrBlock{rows: blk.nRows, xadj: make([]int32, blk.nRows+1)}
		}
		spliceCSR(&b, ed.ins, ed.del)
		blk.uBucket[t] = b
	}
	for t, ed := range lEd {
		b, ok := blk.lBucket[t]
		if !ok {
			b = cscBlock{cols: blk.nCols, xadj: make([]int32, blk.nCols+1)}
		}
		spliceCSC(&b, ed.ins, ed.del)
		blk.lBucket[t] = b
	}
	spliceCSR(&blk.task, tIns, tDel)
	blk.rows = blk.task.nonEmptyRows()
	if p.mirror != nil {
		spliceCSR(&p.mirror.blk, mIns, mDel)
	}
}

// ValidateKernelSizing asserts the two bounds a count sizes its kernel maps
// from, re-deriving both from the resident blocks: every intersection key is
// below the key range of the CURRENT vertex count (the bitmap length — an
// out-of-range key would index past it), and the resident maxURow (the
// probing-table size of the NoDirectHash ablation) is at least the actual
// longest local U row, globally. GrowTo preserves both for free (it only
// appends empty rows and raises n), and Splice refreshes maxURow with an
// allreduce after every mutation. All ranks must call it collectively (one
// allreduce).
func (p *Prepared) ValidateKernelSizing(c *mpi.Comm) error {
	var longest int64
	var topKey int32
	c.Compute(func() { longest, topKey = p.localMaxURow(), p.localTopKey() })
	maxes := c.AllreduceInt64s([]int64{longest, int64(topKey)}, mpi.OpMax)
	resident, keyRange := p.kernelSizing()
	if maxes[0] > resident {
		return fmt.Errorf("core: resident maxURow %d fell behind actual longest U row %d — kernel set sizing bound violated", resident, maxes[0])
	}
	if maxes[1] >= int64(keyRange) {
		return fmt.Errorf("core: intersection key %d outside the kernel bitmap's %d bits (n=%d)", maxes[1], keyRange, p.n)
	}
	return nil
}

// kernelSizing returns what a count sizes its kernel maps from: the resident
// maxURow and the intersection key range of the current vertex count — keys
// are k div q on the Cannon grid and k div lcm(qr, qc) in the SUMMA buckets.
func (p *Prepared) kernelSizing() (maxURow int64, keyRange int32) {
	if p.blk != nil {
		return p.blk.maxURow, numWithResidue(p.n, p.blk.q, 0)
	}
	return p.sblk.maxURow, numWithResidue(p.n, p.lc, 0)
}

// kernelPool builds the kernel workers of one count over p, sized for the
// state as it is now.
func (p *Prepared) kernelPool(c *mpi.Comm, opt Options) *kernelPool {
	maxURow, keyRange := p.kernelSizing()
	return newKernelPool(opt.kernelWorkers(c), keyRange, maxURow, opt)
}

// localMaxURow scans the resident U structure for the longest row — the
// quantity maxURow bounds.
func (p *Prepared) localMaxURow() int64 {
	if p.blk != nil {
		return p.blk.ublk.maxRow()
	}
	var longest int64
	for _, b := range p.sblk.uBucket {
		longest = max(longest, b.maxRow())
	}
	return longest
}

// localTopKey scans the resident operand blocks for the largest intersection
// key (-1 when there is none).
func (p *Prepared) localTopKey() int32 {
	topKey := int32(-1)
	top := func(adj []int32) {
		if len(adj) > 0 {
			topKey = max(topKey, slices.Max(adj))
		}
	}
	if p.blk != nil {
		top(p.blk.ublk.adj)
		top(p.blk.lblk.adj)
		return topKey
	}
	for _, b := range p.sblk.uBucket {
		top(b.adj)
	}
	for _, b := range p.sblk.lBucket {
		top(b.adj)
	}
	return topKey
}
