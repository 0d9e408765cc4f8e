package core

import (
	"fmt"
	"slices"

	"tc2d/internal/mpi"
)

// csrBlock is a sparse block stored by rows with int32 local indices: row a
// holds the sorted local column values adj[xadj[a]:xadj[a+1]]. It represents
// a U block (rows j → keys k) or a task block (rows a → cols b).
//
// A resident block is its own §5.2 blob (see blobMagic for the layout): buf
// is one int32 array holding the header, xadj and adj, the last two views
// into it, and cap(adj) runs to the array's end. newBlock is the one place
// such an array is allocated, and the exclusive mutators that own the arrays
// keep the header current, so buf[:5+rows+nnz] is at every moment the blob a
// count ships. The operand views a count decodes from received blobs, and
// blocks built by hand in tests, have no buf.
type csrBlock struct {
	rows int32
	xadj []int32
	adj  []int32
	buf  []int32
}

func (b *csrBlock) row(a int32) []int32 { return b.adj[b.xadj[a]:b.xadj[a+1]] }

func (b *csrBlock) nnz() int64 { return int64(len(b.adj)) }

// newBlock allocates a block of the given kind with rows lists, nnz entries
// and room for that many more, as its own blob: header written, xadj and adj
// zeroed.
func newBlock(kind, rows int32, nnz, room int) csrBlock {
	b := csrBlock{buf: make([]int32, 5+int(rows)+nnz, 5+int(rows)+nnz+room)}
	b.buf[0], b.buf[1] = blobMagic, kind
	b.setViews(rows, nnz)
	return b
}

// setViews points xadj and adj into buf for rows lists and nnz entries, and
// writes both counts into the header.
func (b *csrBlock) setViews(rows int32, nnz int) {
	x := 5 + int(rows)
	b.rows = rows
	b.buf[2], b.buf[3] = rows, int32(nnz)
	b.xadj = b.buf[4:x:x]
	b.adj = b.buf[x : x+nnz]
}

// kind returns the kind word of a resident block's header.
func (b *csrBlock) kind() int32 { return b.buf[1] }

// blob returns the resident bytes of b: the §5.2 blob a count ships as is.
func (b *csrBlock) blob() []byte {
	return mpi.Int32sAsBytes(b.buf[:5+int(b.rows)+len(b.adj)])
}

// nonEmptyRows returns the doubly-sparse row index (the DCSR-inspired list
// of §5.2): local rows with at least one entry. The list is built in list's
// storage (nil allocates), so the write path refreshes it without garbage.
func (b *csrBlock) nonEmptyRows(list []int32) []int32 {
	list = list[:0]
	for a := int32(0); a < b.rows; a++ {
		if b.xadj[a+1] > b.xadj[a] {
			list = append(list, a)
		}
	}
	return list
}

// emptyBlock returns a block of the given kind and number of lists without
// entries.
func emptyBlock(kind, rows int32) csrBlock { return newBlock(kind, rows, 0, 0) }

// cscBlock is a sparse block stored by columns: column i holds sorted local
// row values. It represents an L block (cols i → keys k). Storage-wise it is
// the CSR block of the transpose — rows counts the columns — so everything
// but the kernel handles it through byCols; the type of its own keeps the
// two operands of an intersection apart.
type cscBlock csrBlock

func (b *cscBlock) col(i int32) []int32 { return b.adj[b.xadj[i]:b.xadj[i+1]] }

// byCols views the block as the CSR block of its columns.
func (b *cscBlock) byCols() *csrBlock { return (*csrBlock)(b) }

// transposeInto scatters a compressed block — list i holds the values
// adj[xadj[i]:xadj[i+1]] — into lists keyed by those values: entry (i, v)
// is written as i at out[next[v]], and next[v] advances. The lists are
// swept in ascending i, so every output list comes out ascending whatever
// the order inside the input lists. next holds each output list's write
// position and is consumed.
func transposeInto(xadj, adj, next, out []int32) {
	for i := 0; i+1 < len(xadj); i++ {
		for _, v := range adj[xadj[i]:xadj[i+1]] {
			out[next[v]] = int32(i)
			next[v]++
		}
	}
}

// transpose returns the block of the given kind with dim lists that holds
// b transposed, its lists ascending.
func transpose(b *csrBlock, kind, dim int32) csrBlock {
	t := newBlock(kind, dim, len(b.adj), 0)
	for _, v := range b.adj {
		t.xadj[v+1]++
	}
	prefixSum(t.xadj)
	transposeInto(b.xadj, b.adj, slices.Clone(t.xadj[:dim]), t.adj)
	return t
}

// prefixSum turns per-list counts stored at x[i+1] into list offsets.
func prefixSum(x []int32) {
	for i := 1; i < len(x); i++ {
		x[i] += x[i-1]
	}
}

// The exchanges of preprocessing whose parts the receiver checks.
const (
	exchCyclic = "cyclic redistribution"
	exch2D     = "2D redistribution"
)

// PartError reports a received part of a preprocessing exchange that is not
// well-formed for the receiving rank: a part of the cyclic redistribution
// that is not a sequence of chunks of its 1D block (see
// cyclicBlock.degrees), or a part of the 2D redistribution that is not a
// sequence of groups of its blocks (see routePairs). The part came off the
// wire, so the build fails instead of indexing out of range.
type PartError struct {
	Exchange string // the exchange the part belongs to
	Src      int    // the rank the part came from
	Word     int    // offset of the offending chunk or group in the part, in words
	Reason   string // what is wrong with it
}

func (e *PartError) Error() string {
	return fmt.Sprintf("core: %s part from rank %d, word %d: %s", e.Exchange, e.Src, e.Word, e.Reason)
}

func partError(exchange string, src, word int, reason string, args ...any) error {
	return &PartError{Exchange: exchange, Src: src, Word: word, Reason: fmt.Sprintf(reason, args...)}
}

// buildBlocks is the block builder of the 2D redistribution: from the
// received groups [column, count, entries…] — each entry a local row, ≥ 0
// for a U entry and complemented for an L entry — it forms the U block and
// the L pattern, both by rows (CSR, rows → sorted columns), with every array
// allocated once at its final size. The L pattern is the ⟨j,i,k⟩ task block,
// and transposed the L block (blocksOf).
//
// A counting sweep sizes the rows and records where each column's group
// lies; then the columns are visited in ascending order and each is
// appended to the rows it has entries in, U rows for U entries and rows of
// the L pattern for L entries. So every row comes out ascending, with no
// comparison sort and no intermediate bucket array, whatever the order
// inside a group.
//
// The counting sweep checks every group against nRows × nCols — a column
// must arrive in one group — and the placing sweep refuses an entry
// repeated in a group, as the row it lands in then ends in its column
// already. A malformed group is a *PartError; no array is sized from a
// header before the entries it counts have been seen.
func buildBlocks(got [][]int32, nRows, nCols int32) (u, lRows csrBlock, err error) {
	// Row lengths, U and L apart, and where each column's group lies.
	uNext, lNext := make([]int32, nRows+1), make([]int32, nRows+1)
	type groupAt struct{ src, word int32 } // src+1; 0 while the column has none
	at := make([]groupAt, nCols)
	for src, part := range got {
		for i := 0; i < len(part); {
			if len(part)-i < 2 {
				return u, lRows, partError(exch2D, src, i, "truncated group header")
			}
			lc, k := part[i], part[i+1]
			if uint32(lc) >= uint32(nCols) {
				return u, lRows, partError(exch2D, src, i, "column %d outside [0, %d)", lc, nCols)
			}
			if k < 0 || int(k) > len(part)-i-2 {
				return u, lRows, partError(exch2D, src, i, "count %d, %d words left", k, len(part)-i-2)
			}
			if first := at[lc]; first.src != 0 {
				return u, lRows, partError(exch2D, src, i, "column %d sent twice, first by rank %d at word %d", lc, first.src-1, first.word)
			}
			at[lc] = groupAt{int32(src) + 1, int32(i)}
			for _, e := range part[i+2 : i+2+int(k)] {
				if e < -nRows || e >= nRows {
					return u, lRows, partError(exch2D, src, i, "entry %d outside [%d, %d)", e, -nRows, nRows)
				}
				if e >= 0 {
					uNext[e+1]++
				} else {
					lNext[^e+1]++
				}
			}
			i += 2 + int(k)
		}
	}
	prefixSum(uNext)
	prefixSum(lNext)
	u = newBlock(kindU, nRows, int(uNext[nRows]), 0)
	lRows = newBlock(kindU, nRows, int(lNext[nRows]), 0)
	copy(u.xadj, uNext)
	copy(lRows.xadj, lNext)

	// Append the columns in ascending order to their rows; uNext and lNext
	// hold each row's write position.
	for lc, g := range at {
		if g.src == 0 {
			continue
		}
		part := got[g.src-1][g.word:]
		for _, e := range part[2 : 2+part[1]] {
			b, next := &u, uNext
			if e < 0 {
				b, next, e = &lRows, lNext, ^e
			}
			w := next[e]
			if w > b.xadj[e] && b.adj[w-1] == int32(lc) {
				return u, lRows, partError(exch2D, int(g.src-1), int(g.word), "row %d repeated in column %d", e, lc)
			}
			b.adj[w] = int32(lc)
			next[e]++
		}
	}
	return u, lRows, nil
}

// maxRow returns the longest row of b.
func (b *csrBlock) maxRow() int64 {
	var max int32
	for a := int32(0); a < b.rows; a++ {
		if n := b.xadj[a+1] - b.xadj[a]; n > max {
			max = n
		}
	}
	return int64(max)
}

// Block blob layout (§5.2 "reducing overheads associated with
// communication"): one int32 array reinterpreted as bytes —
//
//	[0] magic, [1] kind, [2] dim (rows or cols), [3] nnz,
//	[4:4+dim+1] xadj, [5+dim:5+dim+nnz] adj
//
// Every resident block is stored this way (csrBlock.buf), so a block is
// shipped as its resident bytes and decoded by pointer arithmetic into them.
// The kind tells the operands apart: U, and the task block, which never
// travels, are stored by rows; L by columns.
const (
	blobMagic = int32(0x7C2D)
	kindU     = int32(0)
	kindL     = int32(1)
)

// decodeCSRBlob views a received block blob of the given kind, which must
// have dim lists, as row pointers and entries aliasing b. The checks are
// O(1), so a read pays nothing for them: the header, the exact length, and
// row pointers that start at 0 and end at nnz.
func decodeCSRBlob(b []byte, kind, dim int32) (xadj, adj []int32, err error) {
	if len(b)%4 != 0 || len(b) < 16 {
		return nil, nil, fmt.Errorf("core: block blob of %d bytes is not a header of 4 words and a body", len(b))
	}
	blob := mpi.BytesToInt32s(b)
	if blob[0] != blobMagic {
		return nil, nil, fmt.Errorf("core: block blob has magic %#x, want %#x", blob[0], blobMagic)
	}
	if blob[1] != kind {
		return nil, nil, fmt.Errorf("core: block blob of kind %d, want %d", blob[1], kind)
	}
	if dim < 0 || blob[2] != dim {
		return nil, nil, fmt.Errorf("core: block blob has %d lists, want %d", blob[2], dim)
	}
	nnz := blob[3]
	if nnz < 0 || int64(len(blob)) != 5+int64(dim)+int64(nnz) {
		return nil, nil, fmt.Errorf("core: block blob of %d words, its header says %d lists and %d entries", len(blob), dim, nnz)
	}
	x := 5 + dim
	xadj, adj = blob[4:x:x], blob[x:]
	if xadj[0] != 0 || xadj[dim] != nnz {
		return nil, nil, fmt.Errorf("core: block blob row pointers span [%d, %d) over %d entries", xadj[0], xadj[dim], nnz)
	}
	return xadj, adj, nil
}

// Base tags for the naive (non-blob) block transfer: header, xadj and adj
// travel as three separate messages per hop (the U operand uses
// tagHdr..tagHdr+2, the L operand tagHdr+10..tagHdr+12).
const tagHdr = 25

// sendBlockNaive ships a U block as three messages with element-wise
// encoding — the baseline the single-blob optimization is measured against
// (§5.2). The shift schedules move nothing else: their L operands are U
// blocks too. The encode loop runs between messages, so the runtime charges
// it as local work, mirroring MPI pack/unpack cost.
func sendBlockNaive(c *mpi.Comm, dst int, baseTag int, xadj, adj []int32) {
	hdr := encodeInt32sSlow([]int32{blobMagic, kindU, int32(len(xadj) - 1), int32(len(adj))})
	xb := encodeInt32sSlow(xadj)
	ab := encodeInt32sSlow(adj)
	c.SendOwn(dst, baseTag+0, hdr)
	c.SendOwn(dst, baseTag+1, xb)
	c.SendOwn(dst, baseTag+2, ab)
}

func recvBlockNaive(c *mpi.Comm, src int, baseTag int) (dim int32, xadj, adj []int32) {
	hb := c.Recv(src, baseTag+0)
	xb := c.Recv(src, baseTag+1)
	ab := c.Recv(src, baseTag+2)
	hdr := decodeInt32sSlow(hb)
	if hdr[0] != blobMagic || hdr[1] != kindU {
		panic("core: corrupt naive block")
	}
	return hdr[2], decodeInt32sSlow(xb), decodeInt32sSlow(ab)
}

func encodeInt32sSlow(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		u := uint32(x)
		b[4*i] = byte(u)
		b[4*i+1] = byte(u >> 8)
		b[4*i+2] = byte(u >> 16)
		b[4*i+3] = byte(u >> 24)
	}
	return b
}

func decodeInt32sSlow(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
	}
	return v
}
