package dgraph

import "math/bits"

// idSet is a set of vertex ids over [0, n] kept as a bitmap with a per-word
// rank directory: n/8 bytes of marks plus n/16 of ranks, against the 4 bytes
// per adjacency entry of a request list. Marking is idempotent, so it
// dedupes; scanning emits members in ascending order; and pos gives a
// member's index in that order in O(1), which is what lets DegreeLabels
// match answers to neighbours without sorting or searching.
type idSet struct {
	words []uint64
	rank  []int32 // rank[w] = members in words[:w]; valid after index
}

// newIDSet sizes the set so that pos(n) is addressable.
func newIDSet(n int64) *idSet {
	return &idSet{words: make([]uint64, n/64+1)}
}

func (s *idSet) add(u int32) { s.words[u>>6] |= 1 << (uint(u) & 63) }

// index builds the rank directory; call it once, after the last add.
func (s *idSet) index() {
	s.rank = make([]int32, len(s.words))
	var sum int32
	for w, word := range s.words {
		s.rank[w] = sum
		sum += int32(bits.OnesCount64(word))
	}
}

// pos returns the number of members below u — for a member, its index in
// ascending order.
func (s *idSet) pos(u int32) int32 {
	w := u >> 6
	return s.rank[w] + int32(bits.OnesCount64(s.words[w]&(1<<(uint(u)&63)-1)))
}

// appendRange appends the members in [beg, end) to dst in ascending order.
func (s *idSet) appendRange(dst []int32, beg, end int32) []int32 {
	b, e := int(beg), int(end)
	for w := b >> 6; w<<6 < e; w++ {
		word := s.words[w]
		lo := w << 6
		if lo < b {
			word &^= 1<<uint(b-lo) - 1
		}
		if lo+64 > e {
			word &= 1<<uint(e-lo) - 1
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(lo+bits.TrailingZeros64(word)))
		}
	}
	return dst
}
