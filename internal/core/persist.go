package core

// Snapshot serialization of the resident per-rank state. EncodePrepared
// flattens everything a Prepared value needs to serve queries and updates
// after a restart — the task and operand CSR blocks (see stateKind), the retained
// relabel permutation and its cyclic origin, the elastic vertex-space
// descriptor and the maintained edge/wedge totals — into one deterministic
// little-endian blob; DecodeChain rebuilds the identical state on the same
// rank of an identically shaped world.
//
// Deliberately NOT serialized:
//
//   - the doubly-sparse non-empty-row lists: recomputed at decode time;
//   - the preprocessing op count (PreOps): it describes the pipeline run
//     that built the state, and a restore runs no pipeline — a decoded
//     Prepared reports PreOps() == 0, which is how callers verify a
//     restart never repeated the preprocessing.
//
// Integrity (checksums, file framing, atomic publication) is the snapshot
// package's job; this file only defines the payload. The blob still opens
// with its own magic and version so a payload handed to the wrong decoder
// fails loudly instead of misparsing.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

const (
	preparedMagic   = uint32(0x54435052) // "TCPR"
	preparedVersion = uint32(2)

	kindCannonLState = byte(0)
	kindSUMMAState   = byte(1)
	kindCannonState  = byte(2)
)

type encoder struct{ b []byte }

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) i64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }
func (e *encoder) i32s(v []int32) {
	e.i32(int32(len(v)))
	for _, x := range v {
		e.i32(x)
	}
}

func (e *encoder) csr(b *csrBlock) {
	e.i32(b.rows)
	e.i32s(b.xadj)
	e.i32s(b.adj)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("core: prepared blob: %s at offset %d", msg, d.off)
	}
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) i64() int64 {
	lo := uint64(d.u32())
	hi := uint64(d.u32())
	return int64(lo | hi<<32)
}

func (d *decoder) i32s() []int32 {
	n := d.i32()
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+4*int(n) > len(d.b) {
		d.fail(fmt.Sprintf("slice of %d entries overruns blob", n))
		return nil
	}
	v := make([]int32, n)
	d.fill(v)
	return v
}

// fill reads len(v) entries into v; the caller has bounds-checked them.
func (d *decoder) fill(v []int32) {
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(d.b[d.off:]))
		d.off += 4
	}
}

// csr reads a block of the given kind — rows, then xadj and adj as length-
// prefixed slices — into a resident block of its own.
func (d *decoder) csr(kind int32) csrBlock {
	rows, nx := d.i32(), d.i32()
	if d.err != nil {
		return csrBlock{}
	}
	// The entry count follows the row pointers: read it first, so that the
	// block is allocated once, at its size, as its own blob.
	at := d.off + 4*int(nx)
	if rows < 0 || int(nx) != int(rows)+1 || at+4 > len(d.b) {
		d.fail("inconsistent CSR block")
		return csrBlock{}
	}
	nnz := int(int32(binary.LittleEndian.Uint32(d.b[at:])))
	if nnz < 0 || at+4+4*nnz > len(d.b) {
		d.fail(fmt.Sprintf("slice of %d entries overruns blob", nnz))
		return csrBlock{}
	}
	b := newBlock(kind, rows, nnz, 0)
	d.fill(b.xadj)
	d.off += 4
	d.fill(b.adj)
	if b.xadj[rows] != int32(nnz) {
		d.fail("inconsistent CSR block")
	}
	return b
}

// stateKind names the snapshot kind the state is written as: the Cannon
// kind, the task block and the single U block of the shift schedule, or the
// SUMMA kind, which lists the created operand classes of the broadcast
// schedule by id. Both describe the one blocks struct. A third kind, the
// Cannon kind with the L block after the U block, is read and never
// written: every shift state was written so before its L operand became the
// transposed rank's U block.
func (p *Prepared) stateKind() byte {
	if p.bcast {
		return kindSUMMAState
	}
	return kindCannonState
}

// checkKind refuses a state kind this binary does not know, and a Cannon
// state written for ⟨i,j,k⟩ without the L block its conversion reads
// (convertToJIK).
func checkKind(kind byte, enum Enumeration) error {
	switch {
	case kind > kindCannonState:
		return fmt.Errorf("unknown state kind %d", kind)
	case kind == kindCannonState && enum == EnumIJK:
		return fmt.Errorf("state kind %d holds no L block, which the %v layout needs", kind, enum)
	}
	return nil
}

// EncodePrepared serializes the resident state of one rank. It only reads
// the Prepared value, so it may run inside a read epoch, concurrently with
// counting queries (but never with a write epoch — the cluster scheduler's
// gate enforces that, as for every reader).
func EncodePrepared(p *Prepared) []byte {
	e := &encoder{b: make([]byte, 0, 1024)}
	e.u32(preparedMagic)
	e.u32(preparedVersion)
	e.b = append(e.b, p.stateKind(), byte(EnumJIK), 0, 0)

	e.i64(p.n)
	e.i64(p.baseN)
	e.i64(p.version)
	e.i64(p.m)
	e.i64(p.wedges)
	e.i32(p.labelBeg)
	e.i32s(p.labels)
	// Degree-dirty set (v2): sorted so the blob stays deterministic. A
	// restored cluster needs it to keep choosing the incremental rebuild
	// mode correctly.
	e.i32s(sortedI32Set(p.degreeDirty))

	blk := p.blk
	if p.bcast {
		e.i32(int32(blk.qr))
		e.i32(int32(blk.qc))
		e.i32(int32(blk.L))
	} else {
		e.i32(int32(blk.qr))
		e.i32(int32(blk.row))
		e.i32(int32(blk.col))
		e.i64(p.n)
	}
	e.i64(blk.maxURow)
	e.i32(blk.nRows)
	e.i32(blk.nCols)
	e.csr(&blk.task)
	if !p.bcast {
		e.csr(&blk.u[0])
		return e.b
	}
	e.classList(len(blk.u), func(i int) {
		if b := &blk.u[i]; b.xadj != nil {
			e.i32(int32(i*blk.qc + blk.col))
			e.csr(b)
		}
	})
	e.classList(len(blk.l), func(i int) {
		if b := &blk.l[i]; b.xadj != nil {
			e.i32(int32(i*blk.qr + blk.row))
			e.csr(b.byCols())
		}
	})
	return e.b
}

// classList writes one operand's list of classes: write(i) emits the id and
// content of the class at index i, or nothing when there is none to list; the
// count of those that emitted something goes in front. Ascending i is
// ascending id.
func (e *encoder) classList(n int, write func(i int)) {
	at, count := len(e.b), uint32(0)
	e.u32(0)
	for i := 0; i < n; i++ {
		before := len(e.b)
		if write(i); len(e.b) > before {
			count++
		}
	}
	binary.LittleEndian.PutUint32(e.b[at:], count)
}

// classList reads one operand's list of created classes — a count, then per
// class its id and whatever read consumes — handing read the class's index in
// blocks.u or blocks.l. Ids must be in [0, L), owned by this rank (≡ res mod
// q) and ascending, so each appears once and in the encoder's order.
func (d *decoder) classList(L, q, res int, read func(i int)) {
	n := d.i32()
	if d.err == nil && (n < 0 || int(n) > L/q) {
		d.fail(fmt.Sprintf("list of %d operand classes, rank owns %d", n, L/q))
	}
	prev := int32(-1)
	for ; n > 0 && d.err == nil; n-- {
		t := d.i32()
		if d.err != nil {
			return
		}
		if t <= prev || int(t) >= L || int(t)%q != res {
			d.fail(fmt.Sprintf("operand class %d out of order, outside [0, %d) or not ≡ %d mod %d", t, L, res, q))
			return
		}
		read(int(t) / q)
		prev = t
	}
}

// DecodeChain rebuilds the resident state of rank `rank` in a world of
// `size` ranks from its snapshot chain: an EncodePrepared blob, then every
// EncodePreparedDelta blob in application order. Every blob must target
// exactly that grid position, and the state keep every bound the kernel and
// the write path rely on (blocks.check) after each of them — blobs also
// arrive over the network, from a follower's bootstrap and the
// coordinator's restore, so a malformed one is an error, never a panic. The
// decoded value reports zero preprocessing cost (no pipeline ran).
//
// The state comes out laid out for ⟨j,i,k⟩, as PrepareGrid builds it. A
// chain an older binary wrote for ⟨i,j,k⟩ is replayed in the layout it was
// written in and converted once (convertToJIK): before the first delta
// written after such a conversion, which is a ⟨j,i,k⟩ one, or at the end.
// The L block of a legacy ⟨j,i,k⟩ Cannon state is checked and dropped.
func DecodeChain(blobs [][]byte, rank, size int) (*Prepared, error) {
	if len(blobs) == 0 {
		return nil, errors.New("core: empty snapshot chain")
	}
	p, ijk, err := decodePrepared(blobs[0], rank, size)
	for i := 1; err == nil && i < len(blobs); i++ {
		if ijk, err = p.applyDelta(blobs[i], rank, size, ijk); err != nil {
			err = fmt.Errorf("chain member %d of %d: %w", i+1, len(blobs), err)
		}
	}
	if err != nil {
		return nil, err
	}
	if ijk {
		p.convertToJIK()
	}
	return p, nil
}

// DecodePrepared is DecodeChain of a base blob alone.
func DecodePrepared(blob []byte, rank, size int) (*Prepared, error) {
	return DecodeChain([][]byte{blob}, rank, size)
}

// decodePrepared decodes a base blob in the layout it was written in, and
// reports whether that is the legacy ⟨i,j,k⟩ one (task block = U, L kept).
func decodePrepared(blob []byte, rank, size int) (p *Prepared, ijk bool, err error) {
	d := &decoder{b: blob}
	if magic := d.u32(); d.err == nil && magic != preparedMagic {
		return nil, false, fmt.Errorf("core: prepared blob has magic %#x, want %#x", magic, preparedMagic)
	}
	if v := d.u32(); d.err == nil && v != preparedVersion {
		return nil, false, fmt.Errorf("core: prepared blob version %d, this binary reads %d", v, preparedVersion)
	}
	kind, enum := d.kindEnum()
	if d.err == nil {
		if err := checkKind(kind, enum); err != nil {
			return nil, false, fmt.Errorf("core: prepared blob: %w", err)
		}
	}
	ijk = enum == EnumIJK

	p = &Prepared{bcast: kind == kindSUMMAState}
	p.n = d.i64()
	p.baseN = d.i64()
	p.version = d.i64()
	p.m = d.i64()
	p.wedges = d.i64()
	p.labelBeg = d.i32()
	p.labels = d.i32s()
	dirty := d.i32s()
	if d.err != nil {
		return nil, false, d.err
	}
	if p.n < 1 || p.n > math.MaxInt32 || p.baseN < 1 || p.baseN > p.n {
		return nil, false, fmt.Errorf("core: prepared blob has impossible vertex space n=%d baseN=%d", p.n, p.baseN)
	}
	if err := checkLabels(p.labelBeg, p.labels, p.baseN, rank, size); err != nil {
		return nil, false, err
	}
	if err := checkDirty(dirty, p.n); err != nil {
		return nil, false, err
	}
	p.SetDegreeDirty(dirty)

	// The grid the blob was written on must be this world's, and this rank's
	// position on it the blob's.
	var qr, qc int
	switch kind {
	case kindCannonLState, kindCannonState:
		q, x, y, n := int(d.i32()), int(d.i32()), int(d.i32()), d.i64()
		if d.err == nil && (q < 1 || q*q != size || x != rank/q || y != rank%q) {
			return nil, false, fmt.Errorf("core: prepared blob is for rank (%d,%d) of a %d×%d grid, decoding on rank %d of %d",
				x, y, q, q, rank, size)
		}
		if d.err == nil && n != p.n {
			d.fail(fmt.Sprintf("blocks built over %d vertices, state has %d", n, p.n))
		}
		qr, qc = q, q
	default:
		var L int
		qr, qc, L = int(d.i32()), int(d.i32()), int(d.i32())
		if d.err == nil && (qr < 1 || qc < 1 || qr*qc != size || L != lcm(qr, qc)) {
			return nil, false, fmt.Errorf("core: prepared blob is for a %d×%d SUMMA grid with %d classes, world has %d ranks", qr, qc, L, size)
		}
	}
	if d.err != nil {
		return nil, false, d.err
	}
	blk := newBlocks(qr, qc, rank, p.n, p.bcast)
	blk.maxURow = d.i64()
	nRows, nCols := d.i32(), d.i32()
	if d.err == nil && (nRows != blk.nRows || nCols != blk.nCols) {
		return nil, false, fmt.Errorf("core: prepared blob dimensions %d×%d do not match rank %d of a %d×%d grid over %d vertices",
			nRows, nCols, rank, qr, qc, p.n)
	}
	blk.task = d.csr(kindU)
	switch kind {
	case kindSUMMAState:
		d.classList(blk.L, qc, blk.col, func(i int) { blk.u[i] = d.csr(kindU) })
		d.classList(blk.L, qr, blk.row, func(i int) { blk.l[i] = cscBlock(d.csr(kindL)) })
	default:
		blk.u[0] = d.csr(kindU)
		if kind == kindCannonLState {
			blk.l = []cscBlock{cscBlock(d.csr(kindL))}
		}
	}
	if d.err != nil {
		return nil, false, d.err
	}
	if d.off != len(d.b) {
		return nil, false, fmt.Errorf("core: prepared blob has %d trailing bytes", len(d.b)-d.off)
	}
	if err := blk.check(p.n); err != nil {
		return nil, false, err
	}
	if !p.bcast && !ijk {
		blk.l = nil
	}
	blk.taskRows = blk.task.nonEmptyRows(nil)
	p.blk = blk
	p.reserveScratch()
	return p, ijk, nil
}

// convertToJIK lays a legacy state decoded in the ⟨i,j,k⟩ layout (task
// block = the U pattern, L kept) out for ⟨j,i,k⟩ (task block = the L
// classes by rows); a shift state then drops its L block. Local.
func (p *Prepared) convertToJIK() {
	// Column j of L class i holds keys k of local rows k·(L/qr) + i.
	b, step := p.blk, int32(p.blk.L/p.blk.qr)
	var ents []int64 // packed like classEdits: row-major when sorted
	for i, l := range b.l {
		for j := int32(0); j < l.rows; j++ {
			for _, k := range l.col(j) {
				ents = append(ents, int64(k*step+int32(i))<<32|int64(j))
			}
		}
	}
	slices.Sort(ents)
	b.task = newBlock(kindU, b.nRows, len(ents), 0)
	for x, e := range ents {
		b.task.xadj[editRow(e)+1]++
		b.task.adj[x] = editVal(e)
	}
	prefixSum(b.task.xadj)
	b.taskRows = b.task.nonEmptyRows(b.taskRows)
	if !p.bcast {
		b.l = nil
	}
}

// checkLabels verifies a decoded label map against the base region [0, baseN)
// it routes into: the map starts at rank's first cyclic id and covers rank's
// share of the region, and every label lies in the region. Update routing
// indexes the map by cyclic id and splices the labels it yields, so a
// hostile map would panic there instead of failing here.
func checkLabels(beg int32, labels []int32, baseN int64, rank, size int) error {
	if int64(beg) != CyclicOffsets(baseN, size)[rank] || len(labels) != int(numWithResidue(baseN, size, rank)) {
		return fmt.Errorf("core: label map of %d slots from cyclic id %d is not rank %d's share of the base region [0, %d) in a world of %d",
			len(labels), beg, rank, baseN, size)
	}
	for i, l := range labels {
		if l < 0 || int64(l) >= baseN {
			return fmt.Errorf("core: label slot %d holds %d, outside the base region [0, %d)", i, l, baseN)
		}
	}
	return nil
}

// checkDirty verifies a decoded degree-dirty set: ascending, as the encoders
// write it, and every label in the vertex space [0, n) — the incremental
// rebuild reads the row of each.
func checkDirty(dirty []int32, n int64) error {
	for i, v := range dirty {
		if v < 0 || int64(v) >= n {
			return fmt.Errorf("core: degree-dirty label %d outside the vertex space [0, %d)", v, n)
		}
		if i > 0 && v <= dirty[i-1] {
			return fmt.Errorf("core: degree-dirty set is not ascending")
		}
	}
	return nil
}

// kindEnum reads the four-byte kind/enumeration word that follows the
// version of both blob types; the two spare bytes must be zero.
func (d *decoder) kindEnum() (kind byte, enum Enumeration) {
	if d.err != nil {
		return 0, 0
	}
	if d.off+4 > len(d.b) {
		d.fail("truncated header")
		return 0, 0
	}
	w := d.b[d.off : d.off+4]
	if w[1] > byte(EnumIJK) || w[2] != 0 || w[3] != 0 {
		d.fail("bad enumeration or padding")
	}
	d.off += 4
	return w[0], Enumeration(w[1])
}

// check verifies, on state that came out of a blob, everything the kernel
// and the splice take for granted: the block dimensions are this rank's for
// n vertices; every created block has that many rows or columns, row
// pointers that start at 0, never decrease and end at len(adj); every
// intersection key lies in [0, ⌈n/L⌉) — the kernel's bitmap length — and
// every task column in [0, nCols); and maxURow, which sizes the probing table
// of the NoDirectHash ablation, is at least the longest local U row and at
// most the key range.
func (b *blocks) check(n int64) error {
	if nRows, nCols := b.dims(n); b.nRows != nRows || b.nCols != nCols {
		return fmt.Errorf("core: blocks are %d×%d, rank (%d,%d) of a %d×%d grid over %d vertices holds %d×%d",
			b.nRows, b.nCols, b.row, b.col, b.qr, b.qc, n, nRows, nCols)
	}
	keyRange := numWithResidue(n, b.L, 0)
	if err := b.task.check(b.nRows, b.nCols); err != nil {
		return fmt.Errorf("core: task block %w", err)
	}
	for i := range b.u {
		if u := &b.u[i]; u.xadj != nil {
			if err := u.check(b.nRows, keyRange); err != nil {
				return fmt.Errorf("core: U class %d %w", i*b.qc+b.col, err)
			}
		}
	}
	for i := range b.l {
		if l := &b.l[i]; l.xadj != nil {
			if err := l.byCols().check(b.nCols, keyRange); err != nil {
				return fmt.Errorf("core: L class %d %w", i*b.qr+b.row, err)
			}
		}
	}
	if longest := b.longestURow(); longest > b.maxURow || b.maxURow > int64(keyRange) {
		return fmt.Errorf("core: resident maxURow %d outside [longest U row %d, key range %d] — kernel set sizing bound violated",
			b.maxURow, longest, keyRange)
	}
	return nil
}

// check verifies one block: `rows` lists, consistent row pointers, every
// value in [0, bound). The error reads on from the block's name.
func (b *csrBlock) check(rows, bound int32) error {
	if b.rows != rows || len(b.xadj) != int(rows)+1 {
		return fmt.Errorf("has %d lists (%d row pointers), want %d", b.rows, len(b.xadj), rows)
	}
	if b.xadj[0] != 0 || int(b.xadj[rows]) != len(b.adj) {
		return fmt.Errorf("row pointers span [%d, %d) over %d entries", b.xadj[0], b.xadj[rows], len(b.adj))
	}
	for a := int32(0); a < rows; a++ {
		if b.xadj[a+1] < b.xadj[a] {
			return fmt.Errorf("row pointers decrease at list %d", a)
		}
	}
	for _, v := range b.adj {
		if v < 0 || v >= bound {
			return fmt.Errorf("holds %d, outside [0, %d)", v, bound)
		}
	}
	return nil
}
