package mpi

import "sync"

// sendPool recycles the per-destination []int32 staging buffers the sparse
// int32 collective consumes. The write path of the dynamic-update subsystem runs
// one or more all-to-alls per epoch, each staging its payloads in freshly
// appended buffers; recycling them caps steady-state allocation volume at
// the high-water mark instead of re-allocating every epoch.
var sendPool = sync.Pool{New: func() any { return new([]int32) }}

// SendBufs returns p empty int32 send buffers drawn from the process-wide
// send pool. Pass the slice to AlltoallvSparseInt32 — it recycles every
// send buffer (pooled or not) once its contents are staged for the wire, so
// epochs that draw their staging memory here stop allocating it. (The dense
// AlltoallvInt32 hands its buffers to the receivers instead; pooled buffers
// given to it just leave the pool.) The buffers start empty with arbitrary
// capacity; fill them with append.
func SendBufs(p int) [][]int32 {
	out := make([][]int32, p)
	for i := range out {
		out[i] = (*sendPool.Get().(*[]int32))[:0]
	}
	return out
}

// recycleSendBufs returns send payloads to the pool once their bytes are
// staged. The caller-visible entries are nilled so a stale read fails fast
// instead of observing recycled memory.
func recycleSendBufs(send [][]int32) {
	for i, b := range send {
		send[i] = nil
		if cap(b) == 0 {
			continue
		}
		b = b[:0]
		sendPool.Put(&b)
	}
}

// byteSendPool recycles raw byte payloads: the wire staging buffer every
// copying Send allocates, the per-destination buffers of the byte-slice
// collectives (Alltoallv, Gatherv), and receive buffers their consumers
// have fully copied out of. The ownership discipline is strict — only the
// current owner of a buffer that is provably dead may recycle it. In
// particular a received payload that was reinterpreted in place
// (BytesToInt32s and friends alias the wire buffer when aligned) is NOT
// dead while the typed view lives.
var byteSendPool = sync.Pool{New: func() any { return new([]byte) }}

// GetByteBuf returns a length-n byte buffer drawn from the byte pool; its
// contents are arbitrary. Pool-drawn buffers start at offset 0 of a
// make([]byte)-allocated array, so the alignment guarantees of the typed
// reinterpretation helpers hold for them.
func GetByteBuf(n int) []byte {
	b := *byteSendPool.Get().(*[]byte)
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// RecycleByteBuf returns one dead byte buffer to the pool.
func RecycleByteBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	byteSendPool.Put(&b)
}

// RecycleByteBufs returns a set of dead byte payloads to the pool — e.g.
// the parts a Gatherv root has finished copying out of. Entries are nilled
// so a stale read fails fast instead of observing recycled memory.
func RecycleByteBufs(bufs [][]byte) {
	for i, b := range bufs {
		bufs[i] = nil
		RecycleByteBuf(b)
	}
}
