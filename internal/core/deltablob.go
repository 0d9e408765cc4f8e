package core

// Delta serialization of the resident per-rank state: the churn-proportional
// complement to EncodePrepared. A delta blob carries only what changed since
// the last committed snapshot — the global scalars (always; they are a few
// dozen bytes), the rewritten label slots, the degree-dirty set, and full
// replacements for exactly the block rows/columns the splices since then
// touched (drained from the snapDirty set Splice maintains, see dirty.go).
// ApplyPreparedDelta replays a blob onto the state the parent snapshot
// decoded to, so a base blob plus its delta chain reproduces the resident
// state byte-for-byte.
//
// Like the base payload this is framing-free: CRC framing, manifest chaining
// and atomic publication live in the snapshot package.

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	preparedDeltaMagic   = uint32(0x54435044) // "TCPD"
	preparedDeltaVersion = uint32(1)
)

// vu / vi write varints; vgaps writes a slice as its length plus zigzag
// varints of successive differences — about one byte per entry for the
// sorted id lists and adjacency rows the delta payload is made of, which is
// what keeps a delta blob an order of magnitude under its base.
func (e *encoder) vu(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) vi(v int64)  { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) vgaps(v []int32) {
	e.vu(uint64(len(v)))
	prev := int32(0)
	for _, x := range v {
		e.vi(int64(x - prev))
		prev = x
	}
}

func (d *decoder) vu() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) vi() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) vgaps() []int32 {
	n := d.vu()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) { // every entry takes at least one byte
		d.fail(fmt.Sprintf("gap slice of %d entries overruns blob", n))
		return nil
	}
	v := make([]int32, n)
	prev := int64(0)
	for i := range v {
		prev += d.vi()
		if d.err != nil {
			return nil
		}
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			d.fail("gap entry out of int32 range")
			return nil
		}
		v[i] = int32(prev)
	}
	return v
}

// rowset serializes full replacements for the named rows of a CSR block,
// sorted by row id for determinism.
func (e *encoder) rowset(b *csrBlock, dirty map[int32]struct{}) {
	rows := sortedI32Set(dirty)
	e.vgaps(rows)
	for _, a := range rows {
		e.vgaps(b.row(a))
	}
}

func (e *encoder) colset(b *cscBlock, dirty map[int32]struct{}) {
	tmp := csrBlock{rows: b.cols, xadj: b.xadj, adj: b.adj}
	e.rowset(&tmp, dirty)
}

// EncodePreparedDelta serializes the state changed since the last committed
// snapshot. Valid only when snapshot tracking is enabled (the durability
// layer guarantees that). Read-only against the state, like EncodePrepared.
func EncodePreparedDelta(p *Prepared) []byte {
	s := p.snap
	if s == nil {
		panic("core: EncodePreparedDelta without snapshot tracking")
	}
	e := &encoder{b: make([]byte, 0, 256)}
	e.u32(preparedDeltaMagic)
	e.u32(preparedDeltaVersion)
	kind := kindCannonState
	if p.sblk != nil {
		kind = kindSUMMAState
	}
	e.b = append(e.b, kind, byte(p.enum), 0, 0)

	e.i64(p.n)
	e.i64(p.baseN)
	e.i64(p.version)
	e.i64(p.m)
	e.i64(p.wedges)
	if kind == kindCannonState {
		e.i64(p.blk.maxURow)
	} else {
		e.i64(p.sblk.maxURow)
	}

	// Label state: the new extent plus the slots rewritten in place.
	// Extended slots that were NOT rewritten hold identity labels by the
	// elastic-space contract, so the decoder reconstructs them locally.
	e.i32(p.labelBeg)
	e.i32(int32(len(p.labels)))
	slots := sortedI32Set(s.slots)
	e.vgaps(slots)
	for _, i := range slots {
		e.vi(int64(p.labels[i]))
	}
	e.vgaps(sortedI32Set(p.degreeDirty))

	switch kind {
	case kindCannonState:
		blk := p.blk
		e.i64(blk.n)
		e.i32(blk.nRowsX)
		e.i32(blk.nColsY)
		e.rowset(&blk.ublk, s.uRows)
		e.colset(&blk.lblk, s.lCols)
		e.rowset(&blk.task, s.tRows)
	case kindSUMMAState:
		sblk := p.sblk
		e.i32(sblk.nRows)
		e.i32(sblk.nCols)
		e.rowset(&sblk.task, s.tRows)
		uClasses := sortedClasses(s.uBuck)
		e.i32(int32(len(uClasses)))
		for _, t := range uClasses {
			b := sblk.uBucket[t]
			e.i32(int32(t))
			e.rowset(&b, s.uBuck[t])
		}
		lClasses := sortedClasses(s.lBuck)
		e.i32(int32(len(lClasses)))
		for _, t := range lClasses {
			b := sblk.lBucket[t]
			e.i32(int32(t))
			e.colset(&b, s.lBuck[t])
		}
	}
	return e.b
}

// deltaRowset decodes a rowset into parallel row-id / replacement slices.
func (d *decoder) deltaRowset() (rows []int32, data [][]int32) {
	rows = d.vgaps()
	if d.err != nil {
		return nil, nil
	}
	for i, a := range rows {
		if a < 0 || (i > 0 && a <= rows[i-1]) {
			d.fail("rowset rows out of order")
			return nil, nil
		}
	}
	data = make([][]int32, len(rows))
	for i := range data {
		data[i] = d.vgaps()
		if d.err != nil {
			return nil, nil
		}
	}
	return rows, data
}

// replaceCSRRows rebuilds a CSR block with the named rows replaced
// wholesale, in one linear pass. rows must be sorted ascending and in
// range.
func replaceCSRRows(b *csrBlock, rows []int32, data [][]int32) error {
	if len(rows) == 0 {
		return nil
	}
	if rows[len(rows)-1] >= b.rows {
		return fmt.Errorf("core: delta blob replaces row %d of a %d-row block", rows[len(rows)-1], b.rows)
	}
	total := len(b.adj)
	for i, a := range rows {
		total += len(data[i]) - len(b.row(a))
	}
	newAdj := make([]int32, 0, total)
	newXadj := make([]int32, b.rows+1)
	ri := 0
	for a := int32(0); a < b.rows; a++ {
		if ri < len(rows) && rows[ri] == a {
			newAdj = append(newAdj, data[ri]...)
			ri++
		} else {
			newAdj = append(newAdj, b.row(a)...)
		}
		newXadj[a+1] = int32(len(newAdj))
	}
	b.xadj, b.adj = newXadj, newAdj
	return nil
}

func replaceCSCCols(b *cscBlock, cols []int32, data [][]int32) error {
	tmp := csrBlock{rows: b.cols, xadj: b.xadj, adj: b.adj}
	if err := replaceCSRRows(&tmp, cols, data); err != nil {
		return err
	}
	b.xadj, b.adj = tmp.xadj, tmp.adj
	return nil
}

// ApplyPreparedDelta replays a delta blob onto the resident state of rank
// `rank` in a world of `size` ranks — the state its parent snapshot decoded
// to. Purely local. On error the state may be partially mutated; the restore
// path discards the attempt and re-decodes from scratch.
func ApplyPreparedDelta(p *Prepared, blob []byte, rank, size int) error {
	d := &decoder{b: blob}
	if magic := d.u32(); d.err == nil && magic != preparedDeltaMagic {
		return fmt.Errorf("core: delta blob has magic %#x, want %#x", magic, preparedDeltaMagic)
	}
	if v := d.u32(); d.err == nil && v != preparedDeltaVersion {
		return fmt.Errorf("core: delta blob version %d, this binary reads %d", v, preparedDeltaVersion)
	}
	if d.off+4 > len(d.b) {
		d.fail("truncated header")
		return d.err
	}
	kind, enum := d.b[d.off], Enumeration(d.b[d.off+1])
	d.off += 4
	wantKind := kindCannonState
	if p.sblk != nil {
		wantKind = kindSUMMAState
	}
	if kind != wantKind || enum != p.enum {
		return fmt.Errorf("core: delta blob kind/enum (%d,%d) does not match resident state (%d,%d)", kind, enum, wantKind, p.enum)
	}

	n := d.i64()
	baseN := d.i64()
	version := d.i64()
	m := d.i64()
	wedges := d.i64()
	maxURow := d.i64()
	if d.err != nil {
		return d.err
	}
	if n < p.n || n > math.MaxInt32 || baseN < 1 || baseN > n {
		return fmt.Errorf("core: delta blob has impossible vertex space n=%d baseN=%d over resident n=%d", n, baseN, p.n)
	}

	labelBeg := d.i32()
	labelLen := d.i32()
	slots := d.vgaps()
	if d.err != nil {
		return d.err
	}
	if int(labelLen) < len(p.labels) {
		return fmt.Errorf("core: delta blob shrinks the label map (%d -> %d)", len(p.labels), labelLen)
	}
	if labelLen != numWithResidue(baseN, size, rank) {
		return fmt.Errorf("core: delta blob label map of %d slots does not cover base region %d on rank %d of %d", labelLen, baseN, rank, size)
	}
	labels := make([]int32, labelLen)
	copy(labels, p.labels)
	for i := len(p.labels); i < int(labelLen); i++ {
		labels[i] = int32(rank + size*i) // identity label of cyclic slot i
	}
	for _, slot := range slots {
		val := int32(d.vi())
		if d.err != nil {
			return d.err
		}
		if slot < 0 || slot >= labelLen {
			return fmt.Errorf("core: delta blob patches label slot %d of %d", slot, labelLen)
		}
		labels[slot] = val
	}
	dirty := d.vgaps()
	if d.err != nil {
		return d.err
	}

	switch kind {
	case kindCannonState:
		blk := p.blk
		blkN := d.i64()
		nRowsX := d.i32()
		nColsY := d.i32()
		if d.err != nil {
			return d.err
		}
		if blkN != n || nRowsX != numWithResidue(n, blk.q, blk.x) || nColsY != numWithResidue(n, blk.q, blk.y) {
			return fmt.Errorf("core: delta blob dimensions do not match rank (%d,%d) of a %d×%d grid", blk.x, blk.y, blk.q, blk.q)
		}
		blk.n = blkN
		growCSRRows(&blk.ublk, nRowsX)
		growCSRRows(&blk.task, nRowsX)
		growCSCCols(&blk.lblk, nColsY)
		blk.nRowsX, blk.nColsY = nRowsX, nColsY
		rows, data := d.deltaRowset()
		cols, cdata := d.deltaRowset()
		trows, tdata := d.deltaRowset()
		if d.err != nil {
			return d.err
		}
		if err := replaceCSRRows(&blk.ublk, rows, data); err != nil {
			return err
		}
		if err := replaceCSCCols(&blk.lblk, cols, cdata); err != nil {
			return err
		}
		if err := replaceCSRRows(&blk.task, trows, tdata); err != nil {
			return err
		}
		blk.taskRows = blk.task.nonEmptyRows(nil)
		blk.maxURow = maxURow
	case kindSUMMAState:
		sblk := p.sblk
		nRows := d.i32()
		nCols := d.i32()
		if d.err != nil {
			return d.err
		}
		if nRows != numWithResidue(n, p.qr, rank/p.qc) || nCols != numWithResidue(n, p.qc, rank%p.qc) {
			return fmt.Errorf("core: delta blob dimensions do not match rank %d of a %d×%d grid", rank, p.qr, p.qc)
		}
		growCSRRows(&sblk.task, nRows)
		for t := range sblk.uBucket {
			b := sblk.uBucket[t]
			growCSRRows(&b, nRows)
			sblk.uBucket[t] = b
		}
		for t := range sblk.lBucket {
			b := sblk.lBucket[t]
			growCSCCols(&b, nCols)
			sblk.lBucket[t] = b
		}
		sblk.nRows, sblk.nCols = nRows, nCols
		trows, tdata := d.deltaRowset()
		if d.err != nil {
			return d.err
		}
		if err := replaceCSRRows(&sblk.task, trows, tdata); err != nil {
			return err
		}
		nu := d.i32()
		for i := int32(0); i < nu && d.err == nil; i++ {
			t := int(d.i32())
			rows, data := d.deltaRowset()
			if d.err != nil {
				break
			}
			b, ok := sblk.uBucket[t]
			if !ok {
				b = csrBlock{rows: sblk.nRows, xadj: make([]int32, sblk.nRows+1)}
			}
			if err := replaceCSRRows(&b, rows, data); err != nil {
				return err
			}
			sblk.uBucket[t] = b
		}
		nl := d.i32()
		for i := int32(0); i < nl && d.err == nil; i++ {
			t := int(d.i32())
			cols, data := d.deltaRowset()
			if d.err != nil {
				break
			}
			b, ok := sblk.lBucket[t]
			if !ok {
				b = cscBlock{cols: sblk.nCols, xadj: make([]int32, sblk.nCols+1)}
			}
			if err := replaceCSCCols(&b, cols, data); err != nil {
				return err
			}
			sblk.lBucket[t] = b
		}
		if d.err != nil {
			return d.err
		}
		sblk.rows = sblk.task.nonEmptyRows(nil)
		sblk.maxURow = maxURow
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("core: delta blob has %d trailing bytes", len(d.b)-d.off)
	}

	p.n, p.baseN, p.version = n, baseN, version
	p.m, p.wedges = m, wedges
	p.labelBeg, p.labels = labelBeg, labels
	p.SetDegreeDirty(dirty)
	p.mirror = nil // rebuilt lazily; rows may have changed
	return nil
}
