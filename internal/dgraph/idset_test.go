package dgraph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIDSet checks the three things DegreeLabels needs from the bitmap —
// dedupe, ascending range scans and member positions — against a sorted
// slice, with range ends on, before and after word boundaries.
func TestIDSet(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 128, 1000} {
		rng := rand.New(rand.NewSource(n))
		s := newIDSet(n)
		var want []int32
		for i := int64(0); i < 2*n/3+1; i++ {
			u := int32(rng.Int63n(n))
			s.add(u)
			want = append(want, u)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		s.index()
		if got := s.appendRange(nil, 0, int32(n)); !slices.Equal(got, want) {
			t.Fatalf("n=%d: full scan %v, want %v", n, got, want)
		}
		if got := s.pos(int32(n)); int(got) != len(want) {
			t.Errorf("n=%d: pos(n)=%d, want %d members", n, got, len(want))
		}
		for i, u := range want {
			if got := s.pos(u); int(got) != i {
				t.Errorf("n=%d: pos(%d)=%d, want %d", n, u, got, i)
			}
		}
		for _, cut := range []int32{0, 1, int32(n / 2), 63, 64, 65, int32(n)} {
			if int64(cut) > n {
				continue
			}
			lo, _ := slices.BinarySearch(want, cut)
			if got := s.appendRange(nil, 0, cut); !slices.Equal(got, want[:lo]) {
				t.Errorf("n=%d: scan [0,%d) = %v, want %v", n, cut, got, want[:lo])
			}
			if got := s.appendRange(nil, cut, int32(n)); !slices.Equal(got, want[lo:]) {
				t.Errorf("n=%d: scan [%d,n) = %v, want %v", n, cut, got, want[lo:])
			}
		}
	}
}
