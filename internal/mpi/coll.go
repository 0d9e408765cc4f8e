package mpi

import "fmt"

// Reserved tag block for collective operations. User code should use tags
// below collTagBase.
const (
	collTagBase = 1 << 28
	tagBcast    = collTagBase + iota
	tagReduce
	_ // retired tags: the blanks keep the later tags at their wire values
	tagAlltoallv
	tagScan
	_
	_
	tagBarrier // dissemination barrier on process-spanning worlds
	tagAbort   // a rank of another process failed in the frame's epoch
)

// Op identifies a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// fold reduces src into dst elementwise with op.
func fold[T int64 | float64](op Op, dst, src []T) {
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	}
}

// relRank re-bases rank r so that root maps to 0 for tree collectives.
func relRank(r, root, p int) int { return (r - root + p) % p }

func absRank(rel, root, p int) int { return (rel + root) % p }

// Bcast broadcasts data from root along a binomial tree and returns each
// rank's copy. Non-root ranks pass nil.
func (c *Comm) Bcast(root int, data []byte) []byte {
	p := c.world.size
	if p == 1 {
		return data
	}
	rel := relRank(c.rank, root, p)
	if rel != 0 {
		data = c.Recv(absRank(parentOf(rel), root, p), tagBcast)
	}
	for _, child := range childrenOf(rel, p) {
		c.Send(absRank(child, root, p), tagBcast, data)
	}
	return data
}

// parentOf returns the binomial-tree parent of relative rank r (> 0): clear
// the lowest set bit.
func parentOf(r int) int { return r & (r - 1) }

// childrenOf returns the binomial-tree children of relative rank r in a tree
// of size p: r + 2^k for each 2^k > lowbit-range of r.
func childrenOf(r, p int) []int {
	var kids []int
	for bit := 1; ; bit <<= 1 {
		if r&bit != 0 {
			break
		}
		child := r | bit
		if child >= p {
			break
		}
		if child == r {
			break
		}
		kids = append(kids, child)
	}
	return kids
}

// reduce folds every rank's vector onto root along a binomial tree. acc is
// this rank's accumulator, a copy of its vector in bytes, and combine folds
// a child's vector, as received, into it. Root gets its accumulator back,
// the other ranks nil. The accumulator is the only copy of the vector a
// rank makes: a rank hands it to its parent as it lies (SendOwn) and never
// touches it again, and the parent only reads it.
func (c *Comm) reduce(root int, acc []byte, combine func(acc, other []byte)) []byte {
	p := c.world.size
	if p == 1 {
		return acc
	}
	rel := relRank(c.rank, root, p)
	kids := childrenOf(rel, p)
	// Receive children in reverse order (deepest subtree last finished is
	// irrelevant for correctness; order only matters for determinism).
	for i := len(kids) - 1; i >= 0; i-- {
		other := c.Recv(absRank(kids[i], root, p), tagReduce)
		if len(other) != len(acc) {
			panic("mpi: reduce length mismatch")
		}
		combine(acc, other)
	}
	if rel != 0 {
		c.SendOwn(absRank(parentOf(rel), root, p), tagReduce, acc)
		return nil
	}
	return acc
}

// allreduce is reduce to rank 0, then a broadcast of rank 0's accumulator as
// it lies. Every rank's result is a vector of its own: rank 0 gets its
// accumulator, and every other rank the copy the broadcast's Send made for
// it. That is 2p−1 copies of the vector in all, and a rank may overwrite
// its result.
func (c *Comm) allreduce(acc []byte, combine func(acc, other []byte)) []byte {
	return c.Bcast(0, c.reduce(0, acc, combine))
}

// AllreduceInt64s reduces elementwise across all ranks and returns the result
// on every rank (reduce-to-0 then broadcast). v is unchanged, and each rank's
// result is its own.
func (c *Comm) AllreduceInt64s(v []int64, op Op) []int64 {
	return BytesToInt64s(c.allreduce(Int64sToBytes(v), func(acc, other []byte) {
		fold(op, BytesToInt64s(acc), BytesToInt64s(other))
	}))
}

// AllreduceLanes is AllreduceInt64s with an operator per lane: lane i
// reduces with ops[i], so one collective carries sums and maxima together.
func (c *Comm) AllreduceLanes(v []int64, ops []Op) []int64 {
	if len(ops) != len(v) {
		panic(fmt.Sprintf("mpi: AllreduceLanes has %d lanes and %d operators", len(v), len(ops)))
	}
	return BytesToInt64s(c.allreduce(Int64sToBytes(v), func(acc, other []byte) {
		a, o := BytesToInt64s(acc), BytesToInt64s(other)
		for i, op := range ops {
			fold(op, a[i:i+1], o[i:i+1])
		}
	}))
}

// AllreduceInt64 is the scalar convenience form of AllreduceInt64s.
func (c *Comm) AllreduceInt64(v int64, op Op) int64 {
	return c.AllreduceInt64s([]int64{v}, op)[0]
}

// AllreduceFloat64s reduces elementwise across all ranks, result everywhere.
func (c *Comm) AllreduceFloat64s(v []float64, op Op) []float64 {
	return BytesToFloat64s(c.allreduce(Float64sToBytes(v), func(acc, other []byte) {
		fold(op, BytesToFloat64s(acc), BytesToFloat64s(other))
	}))
}

// Alltoallv performs a personalized all-to-all exchange: send[d] goes to rank
// d; the result's entry [s] is the payload received from rank s. This is the
// p point-to-point send/receive formulation the paper uses (cost ≥ p + m/p).
// Ownership of the send payloads transfers to the runtime and on to the
// receivers: the sender must not touch them after the call.
func (c *Comm) Alltoallv(send [][]byte) [][]byte {
	p := c.world.size
	if len(send) != p {
		panic(fmt.Sprintf("mpi: Alltoallv needs %d send buffers, got %d", p, len(send)))
	}
	recv := make([][]byte, p)
	// Keep the local part local (no copy, no charge).
	recv[c.rank] = send[c.rank]
	// Stagger destinations so rank pairs do not all collide on the same hot
	// receiver: round r pairs me with rank+r (send) and rank-r (receive).
	for r := 1; r < p; r++ {
		dst := (c.rank + r) % p
		c.SendOwn(dst, tagAlltoallv, send[dst])
	}
	for r := 1; r < p; r++ {
		src := (c.rank - r + p) % p
		recv[src] = c.Recv(src, tagAlltoallv)
	}
	return recv
}

// AlltoallvInt32 is Alltoallv over int32 payloads. Ownership of the send
// buffers transfers to the runtime and on to the receivers: each buffer goes
// to the wire as is, reinterpreted as bytes, so on the in-process transport
// the receiver's slice IS the sender's array. Callers must neither read nor
// write a buffer after the call (the entries are nilled), and must size the
// buffers themselves: a receiver keeps the sender's whole array, spare
// capacity included. The returned slices belong to the caller, who may
// overwrite them.
func (c *Comm) AlltoallvInt32(send [][]int32) [][]int32 {
	p := c.world.size
	bufs := make([][]byte, p)
	for d := range send {
		bufs[d] = Int32sAsBytes(send[d])
		send[d] = nil
	}
	got := c.Alltoallv(bufs)
	out := make([][]int32, p)
	for s := range got {
		out[s] = BytesToInt32s(got[s])
	}
	return out
}

// ExscanInt64s returns the elementwise exclusive prefix sums of v over
// ranks: rank r gets the sum of v over ranks 0..r-1 (zeros on rank 0).
// Implemented with a Hillis–Steele distance-doubling sweep, so its depth is
// ceil(log2 p) rounds.
func (c *Comm) ExscanInt64s(v []int64) []int64 {
	p := c.world.size
	incl := append([]int64(nil), v...)
	for d := 1; d < p; d <<= 1 {
		var got []int64
		// Post the send first, then receive: both directions are disjoint
		// rank pairs so the buffered mailboxes absorb the exchange.
		if c.rank+d < p {
			c.SendInt64s(c.rank+d, tagScan, incl)
		}
		if c.rank-d >= 0 {
			got = c.RecvInt64s(c.rank-d, tagScan)
		}
		if got != nil {
			for i := range incl {
				incl[i] += got[i]
			}
		}
	}
	for i := range incl {
		incl[i] -= v[i]
	}
	return incl
}
