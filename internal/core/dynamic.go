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
	"slices"

	"tc2d/internal/obs"
)

// GridShape returns the process-grid factorization the state was prepared
// for and whether the SUMMA (broadcast) schedule is used; qr == qc whenever
// it is not.
func (p *Prepared) GridShape() (qr, qc int, summa bool) {
	return p.blk.qr, p.blk.qc, p.bcast
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

// Row is v's row of this rank's block: v's neighbours in the column residue
// class, as column keys (label = key·qc + col), read in place in sorted
// parts. The L part (below v) is v's ⟨j,i,k⟩ task row; the U part (above v)
// is v's row in each U class i, whose key k is column key k·(L/qc) + i. A
// Row names the row, not its entries: after a Splice it reads the new row.
// A KeyRow is the other kind: a row's column keys, in any order.
type Row struct {
	blk  *blocks
	a    int32   // the local row
	keys []int32 // a KeyRow's keys; blk is nil
}

// AdjRow returns the row of global label v, which must belong to this rank's
// row residue class. Its L part is the ⟨j,i,k⟩ task row, the task block of
// every state PrepareGrid or DecodeChain returns.
func (p *Prepared) AdjRow(v int32) Row { return Row{blk: p.blk, a: v / int32(p.blk.qr)} }

// KeyRow is a row given as its column keys in any order, such as one shipped
// from another rank of the grid column (AppendKeys). It has no labels.
func KeyRow(keys []int32) Row { return Row{keys: keys} }

// parts calls f on each part of r, the L part first: entries e that stand
// for the column keys e·mul + add, ascending unless r is a KeyRow.
func (r Row) parts(f func(keys []int32, mul, add int32)) {
	if r.blk == nil {
		f(r.keys, 1, 0)
		return
	}
	f(r.blk.task.row(r.a), 1, 0)
	for i := range r.blk.u {
		if u := &r.blk.u[i]; u.xadj != nil { // uncreated: no entries
			f(u.row(r.a), int32(r.blk.L/r.blk.qc), int32(i))
		}
	}
}

// Len returns the number of entries of r.
func (r Row) Len() (n int) {
	r.parts(func(keys []int32, _, _ int32) { n += len(keys) })
	return n
}

// AppendKeys appends the column keys of r to buf, part by part.
func (r Row) AppendKeys(buf []int32) []int32 { return r.appendAs(buf, 1, 0) }

// AppendLabels appends the global labels of r, not a KeyRow, to buf, part by
// part.
func (r Row) AppendLabels(buf []int32) []int32 {
	return r.appendAs(buf, int32(r.blk.qc), int32(r.blk.col))
}

// appendAs appends key·m + c for every column key of r.
func (r Row) appendAs(buf []int32, m, c int32) []int32 {
	r.parts(func(keys []int32, mul, add int32) {
		for _, e := range keys {
			buf = append(buf, (e*mul+add)*m+c)
		}
	})
	return buf
}

// HasEdgeLocal reports whether the directed entry (v → u) is present in
// this rank's block; v must be row-class and u column-class local. It
// searches the one part of v's row that can hold u.
func (p *Prepared) HasEdgeLocal(v, u int32) bool {
	b := p.blk
	a, qc, L := v/int32(b.qr), int32(b.qc), int32(b.L)
	var row []int32
	key := u / qc
	if u < v {
		row = b.task.row(a)
	} else if cls := &b.u[u%L/qc]; cls.xadj != nil {
		row, key = cls.row(a), u/L
	}
	_, ok := slices.BinarySearch(row, key)
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
	u, l   []classEdits
	task   classEdits
	points []editPoint

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
// xadj[rows], and its own blob with the header's nnz kept current; only
// cap(adj) carries slack (see slackBound). A reallocation moves the whole
// blob.
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
		nb := newBlock(b.kind(), b.rows, newLen, bound/2)
		copy(nb.xadj, b.xadj)
		b.buf, b.xadj, dst = nb.buf, nb.xadj, nb.adj
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
	b.buf[3] = int32(newLen)
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

// Splice applies the effective, validated batch to the resident state. The
// full insertion and deletion lists (canonical label pairs, wa < wb) are
// presented to every rank; each rank splices exactly the directed entries
// its blocks own — the U entry at the (wa → wb) owner, and the (wb → wa)
// entry at its owner, in the ⟨j,i,k⟩ task row and, under the broadcast
// schedule, the L class — keeping the doubly-sparse row list in sync. Every
// block is spliced in place (spliceCSR).
//
// Splice does not communicate, so it leaves the kernel-sizing maximum row
// length to the write epoch: it returns a value whose maximum over the ranks
// is the new maxURow — this rank's longest U row, or the replicated maxURow
// itself when the batch is empty — and the epoch must reduce it and store
// the result with SetMaxURow before it ends. Until then maxURow is this
// rank's old value. Only the NoDirectHash kernel and the state codecs read
// it; the delta passes (IntersectPairs) do not.
func (p *Prepared) Splice(rank int, ins, del [][2]int32) (longestURow int64) {
	if len(ins) == 0 && len(del) == 0 {
		return p.blk.maxURow
	}
	p.spliceBlocks(rank, ins, del)
	return p.blk.longestURow()
}

// SetMaxURow stores the maximum over all ranks of what Splice returned:
// the exact, replicated maxURow.
func (p *Prepared) SetMaxURow(longest int64) { p.blk.maxURow = longest }

// routeEdits files the directed entries of edges that this rank owns into
// the scratch edit lists of the blocks holding them.
func (p *Prepared) routeEdits(rank int32, edges [][2]int32, del bool) {
	sc := &p.splice
	qr, qc, L := int32(p.blk.qr), int32(p.blk.qc), int32(p.blk.L)
	x, y := rank/qc, rank%qc
	// A shift state has no L classes and files no L edits: spliceBlocks
	// would range over none of them, so the check only spares filling
	// unused lists.
	for _, e := range edges {
		wa, wb := e[0], e[1]
		if wa%qr == x && wb%qc == y { // U entry (wa → wb), class wb mod L
			sc.u[wb%L].add(del, wa/qr, wb/L)
		}
		if wb%qr == x && wa%qc == y { // L entry (wb → wa): task row wb/qr; CSC by column, class wb mod L
			sc.task.add(del, wb/qr, wa/qc)
			if p.bcast {
				sc.l[wb%L].add(del, wa/qc, wb/L)
			}
		}
	}
}

// spliceBlocks routes the batch and splices every resident block of this
// rank: the operand blocks class by class (creating a block at its first
// edit), and the task block with its row list.
func (p *Prepared) spliceBlocks(rank int, ins, del [][2]int32) {
	sc, blk := &p.splice, p.blk
	if sc.u == nil {
		sc.u, sc.l = make([]classEdits, blk.L), make([]classEdits, blk.L)
	}
	p.routeEdits(int32(rank), ins, false)
	p.routeEdits(int32(rank), del, true)

	for i := range blk.u {
		ed := &sc.u[i*blk.qc+blk.col]
		if ed.empty() {
			continue
		}
		b := &blk.u[i]
		if b.xadj == nil {
			*b = emptyBlock(kindU, blk.nRows)
		}
		if p.snap != nil {
			markRows(dirtyRows(p.snap.u, i), ed)
		}
		sc.spliceCSR(b, ed)
	}
	for i := range blk.l {
		ed := &sc.l[i*blk.qr+blk.row]
		if ed.empty() {
			continue
		}
		b := &blk.l[i]
		if b.xadj == nil {
			*b = cscBlock(emptyBlock(kindL, blk.nCols))
		}
		if p.snap != nil {
			markRows(dirtyRows(p.snap.l, i), ed)
		}
		sc.spliceCSR(b.byCols(), ed) // edits are (column, value) pairs
	}
	if p.snap != nil {
		markRows(p.snap.tRows, &sc.task)
	}
	sc.spliceCSR(&blk.task, &sc.task)
	blk.taskRows = blk.task.nonEmptyRows(blk.taskRows)
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
	sc.points = keep(sc.points)
}

// kernelSizing returns what a count sizes its kernel maps from: the resident
// maxURow and the intersection key range of the current vertex count — keys
// are k div L, so ⌈n/L⌉ of them.
func (p *Prepared) kernelSizing() (maxURow int64, keyRange int32) {
	return p.blk.maxURow, numWithResidue(p.n, p.blk.L, 0)
}

// kernel builds the kernel of one count over p, sized for the state as it is
// now. Its hub window ends at ⌈baseN/L⌉, the end of the last build's keys,
// where the degree order put the hubs: vertices that arrived since then hold
// the keys above it. The caller releases the kernel when the count's steps
// are done.
func (p *Prepared) kernel(opt Options) *kernel {
	maxURow, keyRange := p.kernelSizing()
	return newKernel(keyRange, numWithResidue(p.baseN, p.blk.L, 0), p.blk.nCols, maxURow, &p.scratch, opt)
}

// longestURow scans the resident U blocks for the longest row — the quantity
// maxURow bounds.
func (b *blocks) longestURow() int64 {
	var longest int64
	for i := range b.u {
		longest = max(longest, b.u[i].maxRow())
	}
	return longest
}
