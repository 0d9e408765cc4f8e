package core

// Snapshot serialization of the resident per-rank state. EncodePrepared
// flattens everything a Prepared value needs to serve queries and updates
// after a restart — the U/L/task CSR blocks (Cannon or SUMMA), the retained
// relabel permutation and its cyclic origin, the elastic vertex-space
// descriptor and the maintained edge/wedge totals — into one deterministic
// little-endian blob; DecodePrepared rebuilds the identical state on the
// same rank of an identically shaped world.
//
// Deliberately NOT serialized:
//
//   - the row-adjacency mirror: EnsureAdjacency rebuilds it lazily and
//     locally from the blocks, so persisting it would only bloat snapshots;
//   - the doubly-sparse non-empty-row lists: recomputed at decode time;
//   - the preprocessing accounting (PreOps/PreprocessTime/CommFracPre): it
//     describes the pipeline run that built the state, and a restore runs
//     no pipeline — a decoded Prepared reports PreOps() == 0, which is how
//     callers verify a restart never repeated the preprocessing.
//
// Integrity (checksums, file framing, atomic publication) is the snapshot
// package's job; this file only defines the payload. The blob still opens
// with its own magic and version so a payload handed to the wrong decoder
// fails loudly instead of misparsing.

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	preparedMagic   = uint32(0x54435052) // "TCPR"
	preparedVersion = uint32(2)

	kindCannonState = byte(0)
	kindSUMMAState  = byte(1)
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

func (e *encoder) csc(b *cscBlock) {
	e.i32(b.cols)
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
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(d.b[d.off:]))
		d.off += 4
	}
	return v
}

func (d *decoder) csr() csrBlock {
	rows := d.i32()
	xadj := d.i32s()
	adj := d.i32s()
	if d.err == nil && (rows < 0 || len(xadj) != int(rows)+1 || (rows >= 0 && len(adj) != int(xadj[rows]))) {
		d.fail("inconsistent CSR block")
	}
	return csrBlock{rows: rows, xadj: xadj, adj: adj}
}

func (d *decoder) csc() cscBlock {
	tmp := d.csr()
	return cscBlock{cols: tmp.rows, xadj: tmp.xadj, adj: tmp.adj}
}

// EncodePrepared serializes the resident state of one rank. It only reads
// the Prepared value, so it may run inside a read epoch, concurrently with
// counting queries (but never with a write epoch — the cluster scheduler's
// gate enforces that, as for every reader).
func EncodePrepared(p *Prepared) []byte {
	e := &encoder{b: make([]byte, 0, 1024)}
	e.u32(preparedMagic)
	e.u32(preparedVersion)
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
	e.i32(p.labelBeg)
	e.i32s(p.labels)
	// Degree-dirty set (v2): sorted so the blob stays deterministic. A
	// restored cluster needs it to keep choosing the incremental rebuild
	// mode correctly.
	e.i32s(sortedI32Set(p.degreeDirty))

	switch kind {
	case kindCannonState:
		blk := p.blk
		e.i32(int32(blk.q))
		e.i32(int32(blk.x))
		e.i32(int32(blk.y))
		e.i64(blk.n)
		e.i64(blk.maxURow)
		e.i32(blk.nRowsX)
		e.i32(blk.nColsY)
		e.csr(&blk.task)
		e.csr(&blk.ublk)
		e.csc(&blk.lblk)
	case kindSUMMAState:
		sblk := p.sblk
		e.i32(int32(p.qr))
		e.i32(int32(p.qc))
		e.i32(int32(p.lc))
		e.i64(sblk.maxURow)
		e.i32(sblk.nRows)
		e.i32(sblk.nCols)
		e.csr(&sblk.task)
		// Buckets in sorted class order so the blob is deterministic.
		uClasses := make([]int, 0, len(sblk.uBucket))
		for t := range sblk.uBucket {
			uClasses = append(uClasses, t)
		}
		sort.Ints(uClasses)
		e.i32(int32(len(uClasses)))
		for _, t := range uClasses {
			b := sblk.uBucket[t]
			e.i32(int32(t))
			e.csr(&b)
		}
		lClasses := make([]int, 0, len(sblk.lBucket))
		for t := range sblk.lBucket {
			lClasses = append(lClasses, t)
		}
		sort.Ints(lClasses)
		e.i32(int32(len(lClasses)))
		for _, t := range lClasses {
			b := sblk.lBucket[t]
			e.i32(int32(t))
			e.csc(&b)
		}
	}
	return e.b
}

// DecodePrepared rebuilds the resident state of rank `rank` in a world of
// `size` ranks from an EncodePrepared blob, verifying the blob targets
// exactly that grid position. The decoded value reports zero preprocessing
// cost (no pipeline ran) and rebuilds its row mirror lazily on first use.
func DecodePrepared(blob []byte, rank, size int) (*Prepared, error) {
	d := &decoder{b: blob}
	if magic := d.u32(); d.err == nil && magic != preparedMagic {
		return nil, fmt.Errorf("core: prepared blob has magic %#x, want %#x", magic, preparedMagic)
	}
	if v := d.u32(); d.err == nil && v != preparedVersion {
		return nil, fmt.Errorf("core: prepared blob version %d, this binary reads %d", v, preparedVersion)
	}
	if d.off+4 > len(d.b) {
		d.fail("truncated header")
		return nil, d.err
	}
	kind, enum := d.b[d.off], Enumeration(d.b[d.off+1])
	d.off += 4

	p := &Prepared{enum: enum}
	p.n = d.i64()
	p.baseN = d.i64()
	p.version = d.i64()
	p.m = d.i64()
	p.wedges = d.i64()
	p.labelBeg = d.i32()
	p.labels = d.i32s()
	p.SetDegreeDirty(d.i32s())

	switch kind {
	case kindCannonState:
		blk := &blocks{}
		blk.q = int(d.i32())
		blk.x = int(d.i32())
		blk.y = int(d.i32())
		blk.n = d.i64()
		blk.maxURow = d.i64()
		blk.nRowsX = d.i32()
		blk.nColsY = d.i32()
		blk.task = d.csr()
		blk.ublk = d.csr()
		blk.lblk = d.csc()
		if d.err != nil {
			return nil, d.err
		}
		if blk.q*blk.q != size || blk.x != rank/blk.q || blk.y != rank%blk.q {
			return nil, fmt.Errorf("core: prepared blob is for rank (%d,%d) of a %d×%d grid, decoding on rank %d of %d",
				blk.x, blk.y, blk.q, blk.q, rank, size)
		}
		blk.taskRows = blk.task.nonEmptyRows(nil)
		p.blk = blk
	case kindSUMMAState:
		p.qr = int(d.i32())
		p.qc = int(d.i32())
		p.lc = int(d.i32())
		sblk := &summaBlocks{uBucket: make(map[int]csrBlock), lBucket: make(map[int]cscBlock)}
		sblk.maxURow = d.i64()
		sblk.nRows = d.i32()
		sblk.nCols = d.i32()
		sblk.task = d.csr()
		nu := d.i32()
		for i := int32(0); i < nu && d.err == nil; i++ {
			t := int(d.i32())
			sblk.uBucket[t] = d.csr()
		}
		nl := d.i32()
		for i := int32(0); i < nl && d.err == nil; i++ {
			t := int(d.i32())
			sblk.lBucket[t] = d.csc()
		}
		if d.err != nil {
			return nil, d.err
		}
		if p.qr < 1 || p.qc < 1 || p.qr*p.qc != size {
			return nil, fmt.Errorf("core: prepared blob is for a %d×%d SUMMA grid, world has %d ranks", p.qr, p.qc, size)
		}
		if sblk.nRows != numWithResidue(p.n, p.qr, rank/p.qc) || sblk.nCols != numWithResidue(p.n, p.qc, rank%p.qc) {
			return nil, fmt.Errorf("core: prepared blob dimensions do not match rank %d of a %d×%d grid", rank, p.qr, p.qc)
		}
		sblk.rows = sblk.task.nonEmptyRows(nil)
		p.sblk = sblk
	default:
		return nil, fmt.Errorf("core: prepared blob has unknown state kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("core: prepared blob has %d trailing bytes", len(d.b)-d.off)
	}
	if p.n < 1 || p.baseN < 1 || p.baseN > p.n {
		return nil, fmt.Errorf("core: prepared blob has impossible vertex space n=%d baseN=%d", p.n, p.baseN)
	}
	return p, nil
}
