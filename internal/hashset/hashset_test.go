package hashset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicInsertContains(t *testing.T) {
	s := New(16)
	s.Reset()
	for _, k := range []int32{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Insert(k)
	}
	for _, k := range []int32{1, 2, 3, 4, 5, 6, 9} {
		if !s.Contains(k) {
			t.Errorf("missing %d", k)
		}
	}
	for _, k := range []int32{0, 7, 8, 100} {
		if s.Contains(k) {
			t.Errorf("phantom %d", k)
		}
	}
}

func TestResetClearsLogically(t *testing.T) {
	s := New(64)
	s.Reset()
	s.Insert(10)
	s.Reset()
	if s.Contains(10) {
		t.Fatal("stale key visible after reset")
	}
}

func TestStampWraparound(t *testing.T) {
	s := New(64)
	// Force many generations; correctness must survive the uint32 stamp
	// space being consumed (simulate by spinning a few thousand resets).
	for g := 0; g < 5000; g++ {
		s.Reset()
		k := int32(g % 60)
		s.Insert(k)
		if !s.Contains(k) {
			t.Fatalf("gen %d lost key", g)
		}
		if s.Contains(int32((g+7)%60)) && int32((g+7)%60) != k {
			t.Fatalf("gen %d phantom key", g)
		}
	}
}

func TestHighLoadProbing(t *testing.T) {
	// Fill to 75% load and verify everything is found.
	s := New(128)
	s.Reset()
	keys := make(map[int32]bool)
	r := rand.New(rand.NewSource(1))
	for len(keys) < 96 {
		k := int32(r.Intn(1 << 20))
		keys[k] = true
		s.Insert(k)
	}
	for k := range keys {
		if !s.Contains(k) {
			t.Errorf("missing %d at high load", k)
		}
	}
}

func TestPropertyMatchesMap(t *testing.T) {
	// The set must behave exactly like map[int32]bool within a generation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(256)
		ref := make(map[int32]bool)
		s.Reset()
		limit := int32(1 << 20)
		for i := 0; i < 100; i++ {
			k := int32(r.Intn(int(limit)))
			s.Insert(k)
			ref[k] = true
		}
		for i := 0; i < 200; i++ {
			k := int32(r.Intn(int(limit)))
			if s.Contains(k) != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCapacity(t *testing.T) {
	s := New(0)
	if len(s.keys) != 64 {
		t.Fatalf("cap=%d want 64", len(s.keys))
	}
	s = New(65)
	if len(s.keys) != 128 {
		t.Fatalf("cap=%d want 128", len(s.keys))
	}
}
