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
// Everything in this file mutates the resident state in place — literally:
// Splice rewrites the resident arrays where they lie, it does not build
// replacements — and is therefore EXCLUSIVE: it may only run inside a write
// epoch (World.Run), never concurrently with the read-only CountPrepared.
// The split is what lets the epoch scheduler run counting queries
// concurrently.

import (
	"fmt"
	"slices"

	"tc2d/internal/mpi"
	"tc2d/internal/obs"
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
	qr, qc, L = p.gridMods()
	if b := p.blk; b != nil {
		return qr, qc, L, b.nRowsX, map[int]csrBlock{b.y: b.ublk}, map[int]cscBlock{b.x: b.lblk}
	}
	return qr, qc, L, p.sblk.nRows, p.sblk.uBucket, p.sblk.lBucket
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
// this rank's row residue class. The slice aliases resident state: read
// only, and the next Splice overwrites it in place — copy what must outlive
// the splice.
func (p *Prepared) AdjRow(v int32) []int32 {
	return p.mirror.blk.row(v / int32(p.mirror.rowMod))
}

// HasEdgeLocal reports whether the directed entry (v → u) is present in
// this rank's block; v must be row-class and u column-class local.
func (p *Prepared) HasEdgeLocal(v, u int32) bool {
	_, ok := slices.BinarySearch(p.AdjRow(v), u)
	return ok
}

// AdjustTotals folds a batch's edge-count and wedge-count deltas into the
// resident global invariants. Every rank must apply identical deltas, as
// the values are replicated.
func (p *Prepared) AdjustTotals(dM, dWedges int64) {
	p.m += dM
	p.wedges += dWedges
}

// classEdits is the routed edit list of one resident block, insertions and
// deletions apart: (row, value) pairs in the block's local indices, packed
// row<<32 | value so that the integer order is the row-major order the
// splice consumes them in.
type classEdits struct{ ins, del []int64 }

func (e *classEdits) add(del bool, row, val int32) {
	key := int64(row)<<32 | int64(uint32(val))
	if del {
		e.del = append(e.del, key)
	} else {
		e.ins = append(e.ins, key)
	}
}

func (e *classEdits) empty() bool { return len(e.ins) == 0 && len(e.del) == 0 }

// editRow and editVal unpack a classEdits key.
func editRow(key int64) int32 { return int32(key >> 32) }
func editVal(key int64) int32 { return int32(key) }

// editPoint is one validated edit of the block being spliced. It applies at
// index pos of the old adj — a deletion removes that entry, an insertion
// goes in before it — and shift is the net growth of all edits up to and
// including this one: how far the entries behind it, up to the next edit,
// move.
type editPoint struct {
	pos, shift int32
	row, val   int32
	ins        bool
}

// spliceScratch is the write path's working memory. It lives on the Prepared
// value and is reused from batch to batch, so a steady-state Splice allocates
// nothing: the routed edit lists of every block (operand edits by k-residue
// class, one slot per class mod L; empty between splices), and the edit
// points of the block being spliced.
type spliceScratch struct {
	u, l         []classEdits
	task, mirror classEdits
	points       []editPoint

	movedBytes, reallocs *obs.Counter
}

// SetMetrics registers the splice counters in reg (nil disables them): bytes
// the splices wrote into resident adjacency arrays, and how often one of
// those arrays was reallocated — outgrown, or carrying more slack than
// slackBound allows.
func (p *Prepared) SetMetrics(reg *obs.Registry) {
	p.splice.movedBytes = reg.Counter("tc_splice_moved_bytes_total",
		"Bytes written into resident adjacency arrays by in-place splices (all ranks).")
	p.splice.reallocs = reg.Counter("tc_splice_reallocs_total",
		"Resident adjacency arrays reallocated by a splice (all ranks).")
}

// slackBound is the most spare capacity a block's adj may carry after a
// splice of e edits left it n entries long: a sixteenth of the block plus
// the batch. A reallocation leaves half of it, so neither a growing nor a
// shrinking block reallocates again at once.
func slackBound(n, e int) int { return n/16 + e }

// spliceCSR applies per-row edits to a CSR block in place, at a cost set by
// the batch and the entries that have to move, not by the block's dimension.
//
// First every edit is located in the old block (sorted edit lists, one
// binary search in the row each) and recorded as an editPoint. This pass is
// also the validation, and it completes before a resident byte moves: it
// panics if an edit names a row outside the block, a deletion a missing
// value or an insertion an existing one (the distributed validation pass
// guarantees none happens) and leaves the block exactly as it was.
//
// Then the runs of entries between consecutive edit points slide to their
// new positions with one bulk copy each — runs moving left in ascending
// order, runs moving right in descending order, so no copy lands on entries
// still to be moved — the inserted values drop into the gaps, and the
// running shift is added to xadj. The block stays packed CSR, len(adj) ==
// xadj[rows]; only cap(adj) carries slack (see slackBound).
func (sc *spliceScratch) spliceCSR(b *csrBlock, ed *classEdits) {
	if ed.empty() {
		return
	}
	ins, del := ed.ins, ed.del
	slices.Sort(ins)
	slices.Sort(del)

	pts := sc.points[:0]
	var shift int32
	for ii, di := 0, 0; ii < len(ins) || di < len(del); {
		// Merge the two lists; a pair named by both goes through as an
		// insertion first and fails one check or the other.
		isIns := di == len(del) || (ii < len(ins) && ins[ii] <= del[di])
		var key int64
		if isIns {
			key = ins[ii]
			ii++
		} else {
			key = del[di]
			di++
		}
		a, v := editRow(key), editVal(key)
		if a < 0 || a >= b.rows {
			panic("core: splice edit referenced an out-of-range row")
		}
		i, found := slices.BinarySearch(b.row(a), v)
		switch {
		case isIns && found:
			panic("core: splice insert of an existing entry")
		case isIns:
			shift++
		case !found:
			panic("core: splice delete of a missing entry")
		default:
			shift--
		}
		pts = append(pts, editPoint{pos: b.xadj[a] + int32(i), shift: shift, row: a, val: v, ins: isIns})
	}
	sc.points = pts

	// From here on the block is written. src keeps the old extent readable
	// while dst takes the new one; they share storage unless reallocated.
	src := b.adj
	newLen := len(src) + int(shift)
	bound := slackBound(newLen, len(pts))
	fresh := newLen > cap(src) || cap(src)-newLen > bound
	written := 0
	var dst []int32
	if fresh {
		dst = make([]int32, newLen, newLen+bound/2)
		// Entries before the first edit stay where they are.
		written += copy(dst, src[:pts[0].pos])
		sc.reallocs.Inc()
	} else {
		dst = src[:newLen]
	}
	last := len(pts) - 1
	// run returns the old extent of the entries between edit k and the next.
	run := func(k int) (beg, end int32) {
		beg, end = pts[k].pos, int32(len(src))
		if !pts[k].ins {
			beg++ // the deleted entry itself
		}
		if k < last {
			end = pts[k+1].pos
		}
		return beg, end
	}
	for k := 0; k <= last; k++ {
		if s := pts[k].shift; s < 0 || (fresh && s == 0) {
			beg, end := run(k)
			written += copy(dst[beg+s:], src[beg:end])
		}
	}
	for k := last; k >= 0; k-- {
		if s := pts[k].shift; s > 0 {
			beg, end := run(k)
			written += copy(dst[beg+s:], src[beg:end])
		}
	}
	for _, p := range pts {
		if p.ins {
			dst[p.pos+p.shift-1] = p.val
			written++
		}
	}
	b.adj = dst
	// The rows behind an edited row, up to and including the next edited
	// one, start later by the shift of the row's last edit.
	for k := 0; k <= last; {
		a := pts[k].row
		for k <= last && pts[k].row == a {
			k++
		}
		end := b.rows
		if k <= last {
			end = pts[k].row
		}
		if s := pts[k-1].shift; s != 0 {
			starts := b.xadj[a+1 : end+1]
			for i := range starts {
				starts[i] += s
			}
		}
	}
	sc.movedBytes.Add(float64(4 * written))
}

// spliceCSC is spliceCSR for a column-stored block; edits are (column,
// value) pairs.
func (sc *spliceScratch) spliceCSC(b *cscBlock, ed *classEdits) {
	tmp := csrBlock{rows: b.cols, xadj: b.xadj, adj: b.adj}
	sc.spliceCSR(&tmp, ed)
	b.adj = tmp.adj
}

// Splice applies the effective, validated batch to the resident state. The
// full insertion and deletion lists (canonical label pairs, wa < wb) are
// presented to every rank; each rank splices exactly the directed entries
// its blocks own — the U entry at the (wa → wb) owner and the L entry at
// the (wb → wa) owner — keeping the task block, the doubly-sparse row
// list, the row mirror and the kernel-sizing maximum row length in sync.
// Every block is spliced in place (spliceCSR): slices handed out earlier —
// AdjRow — are overwritten, not merely outdated. The only communication is
// one allreduce refreshing the maximum row length.
func (p *Prepared) Splice(c *mpi.Comm, ins, del [][2]int32) {
	if len(ins) == 0 && len(del) == 0 {
		return
	}
	var maxRow int64
	c.Compute(func() {
		p.spliceBlocks(c.Rank(), ins, del)
		maxRow = p.localMaxURow()
	})
	max := c.AllreduceInt64(maxRow, mpi.OpMax)
	if p.blk != nil {
		p.blk.maxURow = max
	} else {
		p.sblk.maxURow = max
	}
}

// gridMods returns the residue moduli entries are placed by: rows mod qr,
// columns mod qc, operand classes mod L. The square grid is the one-class
// case, all three equal to q.
func (p *Prepared) gridMods() (qr, qc, L int32) {
	if b := p.blk; b != nil {
		q := int32(b.q)
		return q, q, q
	}
	return int32(p.qr), int32(p.qc), int32(p.lc)
}

// routeEdits files the directed entries of edges that this rank owns into
// the scratch edit lists of the blocks holding them.
func (p *Prepared) routeEdits(rank int32, edges [][2]int32, del bool) {
	sc := &p.splice
	qr, qc, L := p.gridMods()
	x, y := rank/qc, rank%qc
	for _, e := range edges {
		wa, wb := e[0], e[1]
		if wa%qr == x && wb%qc == y { // U entry (wa → wb), class wb mod L
			sc.u[wb%L].add(del, wa/qr, wb/L)
			sc.mirror.add(del, wa/qr, wb)
			if p.enum == EnumIJK {
				sc.task.add(del, wa/qr, wb/qc)
			}
		}
		if wb%qr == x && wa%qc == y { // L entry (wb → wa), CSC by column, class wb mod L
			sc.l[wb%L].add(del, wa/qc, wb/L)
			sc.mirror.add(del, wb/qr, wa)
			if p.enum == EnumJIK {
				sc.task.add(del, wb/qr, wa/qc)
			}
		}
	}
}

// spliceBlocks routes the batch and splices every resident block of this
// rank: the operand blocks (SUMMA: per class, creating a bucket at its first
// edit), the task block with its row list, and the mirror if built.
func (p *Prepared) spliceBlocks(rank int, ins, del [][2]int32) {
	sc := &p.splice
	if sc.u == nil {
		_, _, L := p.gridMods()
		sc.u, sc.l = make([]classEdits, L), make([]classEdits, L)
	}
	p.routeEdits(int32(rank), ins, false)
	p.routeEdits(int32(rank), del, true)

	var task *csrBlock
	var taskRows *[]int32
	if blk := p.blk; blk != nil {
		u, l := &sc.u[blk.y], &sc.l[blk.x]
		if p.snap != nil {
			markRows(p.snap.uRows, u)
			markRows(p.snap.lCols, l)
		}
		sc.spliceCSR(&blk.ublk, u)
		sc.spliceCSC(&blk.lblk, l)
		task, taskRows = &blk.task, &blk.taskRows
	} else {
		blk := p.sblk
		for t := range sc.u {
			ed := &sc.u[t]
			if ed.empty() {
				continue
			}
			b, ok := blk.uBucket[t]
			if !ok {
				b = csrBlock{rows: blk.nRows, xadj: make([]int32, blk.nRows+1)}
			}
			if p.snap != nil {
				markRows(p.snap.bucketRows(p.snap.uBuck, t), ed)
			}
			sc.spliceCSR(&b, ed)
			blk.uBucket[t] = b
		}
		for t := range sc.l {
			ed := &sc.l[t]
			if ed.empty() {
				continue
			}
			b, ok := blk.lBucket[t]
			if !ok {
				b = cscBlock{cols: blk.nCols, xadj: make([]int32, blk.nCols+1)}
			}
			if p.snap != nil {
				markRows(p.snap.bucketRows(p.snap.lBuck, t), ed)
			}
			sc.spliceCSC(&b, ed)
			blk.lBucket[t] = b
		}
		task, taskRows = &blk.task, &blk.rows
	}
	if p.snap != nil {
		markRows(p.snap.tRows, &sc.task)
	}
	sc.spliceCSR(task, &sc.task)
	*taskRows = task.nonEmptyRows(*taskRows)
	if p.mirror != nil {
		sc.spliceCSR(&p.mirror.blk, &sc.mirror)
	}
	sc.reset()
}

// scratchKeep is the largest scratch list, in elements, that stays allocated
// between splices: room for an ordinary batch. What an outsized splice (an
// incremental rebuild moving whole rows, a hub's removal) grew beyond it is
// garbage afterwards instead of resident.
const scratchKeep = 1024

// keep empties a scratch list for the next splice, dropping outsized storage.
func keep[T any](list []T) []T {
	if cap(list) > scratchKeep {
		return nil
	}
	return list[:0]
}

func (e *classEdits) reset() { e.ins, e.del = keep(e.ins), keep(e.del) }

// reset leaves every routed edit list empty, as routeEdits expects them.
func (sc *spliceScratch) reset() {
	for t := range sc.u {
		sc.u[t].reset()
		sc.l[t].reset()
	}
	sc.task.reset()
	sc.mirror.reset()
	sc.points = keep(sc.points)
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
