package core

// Delta serialization of the resident per-rank state: the churn-proportional
// complement to EncodePrepared. A delta blob carries only what changed since
// the last committed snapshot — the global scalars (always; they are a few
// dozen bytes), the rewritten label slots, the degree-dirty set, and full
// replacements for exactly the block rows/columns the splices since then
// touched (drained from the snapDirty set Splice maintains, see dirty.go).
// DecodeChain replays a blob onto the state the parent snapshot decoded to
// (applyDelta), so a base blob plus its delta chain reproduces the resident
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

// EncodePreparedDelta serializes the state changed since the last committed
// snapshot. Valid only when snapshot tracking is enabled (the durability
// layer guarantees that). Read-only against the state, like EncodePrepared.
// The kinds order their rowsets differently (see stateKind): the Cannon
// kind U, then task (the read-only Cannon kind with L has the L block's
// between them); the SUMMA kind task, then the touched classes by id.
func EncodePreparedDelta(p *Prepared) []byte {
	s := p.snap
	if s == nil {
		panic("core: EncodePreparedDelta without snapshot tracking")
	}
	e := &encoder{b: make([]byte, 0, 256)}
	e.u32(preparedDeltaMagic)
	e.u32(preparedDeltaVersion)
	e.b = append(e.b, p.stateKind(), byte(EnumJIK), 0, 0)

	blk := p.blk
	e.i64(p.n)
	e.i64(p.baseN)
	e.i64(p.version)
	e.i64(p.m)
	e.i64(p.wedges)
	e.i64(blk.maxURow)

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

	if !p.bcast {
		e.i64(p.n)
		e.i32(blk.nRows)
		e.i32(blk.nCols)
		e.rowset(&blk.u[0], s.u[0])
		e.rowset(&blk.task, s.tRows)
		return e.b
	}
	e.i32(blk.nRows)
	e.i32(blk.nCols)
	e.rowset(&blk.task, s.tRows)
	e.classList(len(s.u), func(i int) {
		if set := s.u[i]; set != nil {
			e.i32(int32(i*blk.qc + blk.col))
			e.rowset(&blk.u[i], set)
		}
	})
	e.classList(len(s.l), func(i int) {
		if set := s.l[i]; set != nil {
			e.i32(int32(i*blk.qr + blk.row))
			e.rowset(blk.l[i].byCols(), set)
		}
	})
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

// replaceCSRRows rebuilds a resident CSR block, as a new blob, with the
// named rows replaced wholesale, in one linear pass. rows must be sorted
// ascending and in range.
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
	nb := newBlock(b.kind(), b.rows, total, 0)
	ri, end := 0, int32(0)
	for a := int32(0); a < b.rows; a++ {
		row := b.row(a)
		if ri < len(rows) && rows[ri] == a {
			row = data[ri]
			ri++
		}
		end += int32(copy(nb.adj[end:], row))
		nb.xadj[a+1] = end
	}
	*b = nb
	return nil
}

// replaceRows reads a rowset and replaces the rows it names in b.
func (d *decoder) replaceRows(b *csrBlock) {
	rows, data := d.deltaRowset()
	if d.err == nil {
		d.err = replaceCSRRows(b, rows, data)
	}
}

// applyDelta replays a delta blob onto the resident state of rank `rank` in
// a world of `size` ranks — the state its parent snapshot decoded to, in the
// legacy ⟨i,j,k⟩ layout when ijk is set — and reports the layout it leaves.
// A ⟨j,i,k⟩ delta onto an ⟨i,j,k⟩ state was written after a restore
// converted that state, so the state converts first. Purely local. A
// malformed blob is an error, never a panic, and the replayed state is
// verified like a decoded one (blocks.check). On error the state may be
// partially mutated; DecodeChain then drops it.
func (p *Prepared) applyDelta(blob []byte, rank, size int, ijk bool) (bool, error) {
	d := &decoder{b: blob}
	if magic := d.u32(); d.err == nil && magic != preparedDeltaMagic {
		return ijk, fmt.Errorf("core: delta blob has magic %#x, want %#x", magic, preparedDeltaMagic)
	}
	if v := d.u32(); d.err == nil && v != preparedDeltaVersion {
		return ijk, fmt.Errorf("core: delta blob version %d, this binary reads %d", v, preparedDeltaVersion)
	}
	kind, enum := d.kindEnum()
	if d.err == nil {
		if err := checkKind(kind, enum); err != nil {
			return ijk, fmt.Errorf("core: delta blob: %w", err)
		}
	}
	if d.err == nil && ijk && enum == EnumJIK {
		p.convertToJIK()
		ijk = false
	}
	// Either Cannon kind replays onto a shift state: a delta written before
	// the state dropped its L block carries the L rows too.
	if d.err == nil && ((kind == kindSUMMAState) != p.bcast || (enum == EnumIJK) != ijk) {
		return ijk, fmt.Errorf("core: delta blob of kind %d for %v does not match the resident state", kind, enum)
	}

	n := d.i64()
	baseN := d.i64()
	version := d.i64()
	m := d.i64()
	wedges := d.i64()
	maxURow := d.i64()
	if d.err != nil {
		return ijk, d.err
	}
	if n < p.n || n > math.MaxInt32 || baseN < 1 || baseN > n {
		return ijk, fmt.Errorf("core: delta blob has impossible vertex space n=%d baseN=%d over resident n=%d", n, baseN, p.n)
	}

	labelBeg := d.i32()
	labelLen := d.i32()
	slots := d.vgaps()
	if d.err != nil {
		return ijk, d.err
	}
	if int(labelLen) < len(p.labels) {
		return ijk, fmt.Errorf("core: delta blob shrinks the label map (%d -> %d)", len(p.labels), labelLen)
	}
	if labelLen != numWithResidue(baseN, size, rank) {
		return ijk, fmt.Errorf("core: delta blob label map of %d slots does not cover base region %d on rank %d of %d", labelLen, baseN, rank, size)
	}
	labels := make([]int32, labelLen)
	copy(labels, p.labels)
	for i := len(p.labels); i < int(labelLen); i++ {
		labels[i] = int32(rank + size*i) // identity label of cyclic slot i
	}
	for _, slot := range slots {
		val := int32(d.vi())
		if d.err != nil {
			return ijk, d.err
		}
		if slot < 0 || slot >= labelLen {
			return ijk, fmt.Errorf("core: delta blob patches label slot %d of %d", slot, labelLen)
		}
		labels[slot] = val
	}
	if err := checkLabels(labelBeg, labels, baseN, rank, size); err != nil {
		return ijk, err
	}
	dirty := d.vgaps()
	if d.err == nil {
		d.err = checkDirty(dirty, n)
	}

	blk := p.blk
	if !p.bcast {
		if blkN := d.i64(); d.err == nil && blkN != n {
			d.fail(fmt.Sprintf("blocks built over %d vertices, state has %d", blkN, n))
		}
	}
	nRows, nCols := d.i32(), d.i32()
	if d.err != nil {
		return ijk, d.err
	}
	if wantRows, wantCols := blk.dims(n); nRows != wantRows || nCols != wantCols {
		return ijk, fmt.Errorf("core: delta blob dimensions %d×%d do not match rank (%d,%d) of a %d×%d grid over %d vertices",
			nRows, nCols, blk.row, blk.col, blk.qr, blk.qc, n)
	}
	blk.grow(n)
	if p.bcast {
		d.replaceRows(&blk.task)
		d.classList(blk.L, blk.qc, blk.col, func(i int) {
			if blk.u[i].xadj == nil {
				blk.u[i] = emptyBlock(kindU, blk.nRows)
			}
			d.replaceRows(&blk.u[i])
		})
		d.classList(blk.L, blk.qr, blk.row, func(i int) {
			if blk.l[i].xadj == nil {
				blk.l[i] = cscBlock(emptyBlock(kindL, blk.nCols))
			}
			d.replaceRows(blk.l[i].byCols())
		})
	} else {
		d.replaceRows(&blk.u[0])
		if kind == kindCannonLState {
			if ijk {
				d.replaceRows(blk.l[0].byCols())
			} else {
				d.deltaRowset() // rows of the L block a ⟨j,i,k⟩ shift state no longer keeps
			}
		}
		d.replaceRows(&blk.task)
	}
	if d.err != nil {
		return ijk, d.err
	}
	if d.off != len(d.b) {
		return ijk, fmt.Errorf("core: delta blob has %d trailing bytes", len(d.b)-d.off)
	}
	blk.maxURow = maxURow
	if err := blk.check(n); err != nil {
		return ijk, err
	}
	blk.taskRows = blk.task.nonEmptyRows(nil)

	p.n, p.baseN, p.version = n, baseN, version
	p.m, p.wedges = m, wedges
	p.labelBeg, p.labels = labelBeg, labels
	p.SetDegreeDirty(dirty)
	return ijk, nil
}
