// Package hashset implements the intersection hash map from the paper's
// triangle counting kernel: an open-addressing set of int32 keys with
// power-of-two capacity, multiplicative hashing, linear probing, and per-row
// stamps so the map never needs clearing. The sequential oracle and the
// NoDirectHash ablation use it; the counting kernel itself intersects through
// a direct-addressed bitmap (the paper's §5.2 direct hashing, made
// unconditional). The set counts nothing: the paper's collision metric is the
// kernel's Result.Probes.
package hashset

import "math/bits"

// Set is a reusable set of non-negative int32 keys.
type Set struct {
	keys  []int32
	stamp []uint32
	cur   uint32
	mask  int32
	shift uint // 32 - log2(capacity): hash keeps the top log2(capacity) bits
}

// New creates a set with capacity at least `capacity`, rounded up to a power
// of two (minimum 64).
func New(capacity int) *Set {
	c := 64
	for c < capacity {
		c <<= 1
	}
	return &Set{
		keys:  make([]int32, c),
		stamp: make([]uint32, c),
		mask:  int32(c - 1),
		shift: hashShift(c),
	}
}

// Reset begins a new generation: the set is empty again.
func (s *Set) Reset() {
	s.cur++
	if s.cur == 0 {
		// Stamp wrapped; clear lazily by resetting all stamps.
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.cur = 1
	}
}

// hashShift is the shift that leaves the top log2(c) bits of a 32-bit hash,
// for a power-of-two capacity c.
func hashShift(c int) uint { return 32 - uint(bits.TrailingZeros(uint(c))) }

// hash spreads keys with a Fibonacci multiplier before masking.
func (s *Set) hash(k int32) int32 {
	return int32(uint32(k)*2654435761>>s.shift) & s.mask
}

// Insert adds k (>= 0) to the current generation.
func (s *Set) Insert(k int32) {
	i := s.hash(k)
	for s.stamp[i] == s.cur {
		if s.keys[i] == k {
			return
		}
		i = (i + 1) & s.mask
	}
	s.keys[i] = k
	s.stamp[i] = s.cur
}

// Contains reports whether k is in the current generation.
func (s *Set) Contains(k int32) bool {
	i := s.hash(k)
	for s.stamp[i] == s.cur {
		if s.keys[i] == k {
			return true
		}
		i = (i + 1) & s.mask
	}
	return false
}
