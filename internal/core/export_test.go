package core

import (
	"errors"
	"fmt"
	"unsafe"

	"tc2d/internal/mpi"
)

// MaxURow returns p's resident maxURow and the longest U row of its own
// blocks.
func MaxURow(p *Prepared) (resident, longest int64) { return p.blk.maxURow, p.blk.longestURow() }

// splice runs Splice on this rank and agrees on maxURow with the others, as
// a write epoch does. Every rank must call it with the same lists.
func splice(c *mpi.Comm, p *Prepared, ins, del [][2]int32) {
	p.SetMaxURow(c.AllreduceInt64(p.Splice(c.Rank(), ins, del), mpi.OpMax))
}

// ArraySpan is the storage one resident array may write to: its backing
// array from the first element to capacity.
type ArraySpan struct {
	Name     string
	Beg, End uintptr
}

// OwnBlobs checks that every created block of p — the U and L classes, the
// empty blocks uncreated classes travel as, and the task block —
// has this rank's dimension and is its own §5.2 blob: its resident bytes
// decode to views that alias the block's own xadj and adj, under a header
// holding the block's dimension and entry count.
func OwnBlobs(p *Prepared) error {
	b := p.blk
	own := func(name string, blk *csrBlock, kind, rows int32) error {
		if blk.xadj == nil {
			return nil
		}
		if blk.rows != rows || blk.buf[2] != rows || blk.buf[3] != int32(len(blk.adj)) {
			return fmt.Errorf("%s: block of %d lists and %d entries, header says %d and %d, the layout %d lists",
				name, blk.rows, len(blk.adj), blk.buf[2], blk.buf[3], rows)
		}
		xadj, adj, err := decodeCSRBlob(blk.blob(), kind, rows)
		switch {
		case err != nil:
			return fmt.Errorf("%s: %w", name, err)
		case &xadj[0] != &blk.xadj[0] || len(xadj) != len(blk.xadj):
			return fmt.Errorf("%s: the blob's row pointers are not the block's", name)
		case len(adj) != len(blk.adj) || len(adj) > 0 && &adj[0] != &blk.adj[0]:
			return fmt.Errorf("%s: the blob's entries are not the block's", name)
		}
		return nil
	}
	errs := []error{
		own("task", &b.task, kindU, b.nRows),
		own("emptyU", &b.emptyU, kindU, b.nRows),
		own("emptyL", b.emptyL.byCols(), kindL, b.nCols),
	}
	for i := range b.u {
		errs = append(errs, own(fmt.Sprint("u", i*b.qc+b.col), &b.u[i], kindU, b.nRows))
	}
	for i := range b.l {
		errs = append(errs, own(fmt.Sprint("l", i*b.qr+b.row), b.l[i].byCols(), kindL, b.nCols))
	}
	return errors.Join(errs...)
}

// ResidentSpans lists the storage of every array resident on p — blocks,
// row lists, label map, splice scratch — for the external tests,
// which can reach internal/delta. Arrays without storage are left out.
func ResidentSpans(p *Prepared) []ArraySpan {
	var out []ArraySpan
	add := func(name string, beg unsafe.Pointer, capBytes uintptr) {
		if capBytes > 0 {
			out = append(out, ArraySpan{Name: name, Beg: uintptr(beg), End: uintptr(beg) + capBytes})
		}
	}
	i32 := func(name string, s []int32) { add(name, unsafe.Pointer(unsafe.SliceData(s)), 4*uintptr(cap(s))) }
	i64 := func(name string, s []int64) { add(name, unsafe.Pointer(unsafe.SliceData(s)), 8*uintptr(cap(s))) }
	edits := func(name string, e *classEdits) {
		i64(name+".ins", e.ins)
		i64(name+".del", e.del)
	}
	// A block is one array, its blob; xadj and adj are views into it.
	b := p.blk
	i32("task", b.task.buf)
	i32("taskRows", b.taskRows)
	for i := range b.u {
		i32(fmt.Sprint("u", i*b.qc+b.col), b.u[i].buf)
	}
	for i := range b.l {
		i32(fmt.Sprint("l", i*b.qr+b.row), b.l[i].buf)
	}
	i32("emptyU", b.emptyU.buf)
	i32("emptyL", b.emptyL.buf)
	i32("labels", p.labels)
	sc := &p.splice
	for t := range sc.u {
		edits(fmt.Sprint("scratch.u", t), &sc.u[t])
		edits(fmt.Sprint("scratch.l", t), &sc.l[t])
	}
	edits("scratch.task", &sc.task)
	add("scratch.points", unsafe.Pointer(unsafe.SliceData(sc.points)), unsafe.Sizeof(editPoint{})*uintptr(cap(sc.points)))
	return out
}
