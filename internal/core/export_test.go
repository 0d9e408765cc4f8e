package core

import (
	"fmt"
	"unsafe"
)

// ArraySpan is the storage one resident array may write to: its backing
// array from the first element to capacity.
type ArraySpan struct {
	Name     string
	Beg, End uintptr
}

// ResidentSpans lists the storage of every array resident on p — blocks,
// row lists, mirror, label map, splice scratch — for the external tests,
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
	block := func(name string, xadj, adj []int32) {
		i32(name+".xadj", xadj)
		i32(name+".adj", adj)
	}
	edits := func(name string, e *classEdits) {
		i64(name+".ins", e.ins)
		i64(name+".del", e.del)
	}
	b := p.blk
	block("task", b.task.xadj, b.task.adj)
	i32("taskRows", b.taskRows)
	for i := range b.u {
		block(fmt.Sprint("u", i*b.qc+b.col), b.u[i].xadj, b.u[i].adj)
	}
	for i := range b.l {
		block(fmt.Sprint("l", i*b.qr+b.row), b.l[i].xadj, b.l[i].adj)
	}
	if m := p.mirror; m != nil {
		block("mirror", m.xadj, m.adj)
	}
	i32("labels", p.labels)
	sc := &p.splice
	for t := range sc.u {
		edits(fmt.Sprint("scratch.u", t), &sc.u[t])
		edits(fmt.Sprint("scratch.l", t), &sc.l[t])
	}
	edits("scratch.task", &sc.task)
	edits("scratch.mirror", &sc.mirror)
	add("scratch.points", unsafe.Pointer(unsafe.SliceData(sc.points)), unsafe.Sizeof(editPoint{})*uintptr(cap(sc.points)))
	return out
}
