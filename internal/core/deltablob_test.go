package core

import (
	"bytes"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// deltaRoundTrip builds resident state on every rank, snapshots it as a
// base, mutates it the way the write path does (splices, growth, label
// rewrites, degree churn, total adjustments), encodes a delta blob, and
// verifies that base + delta reproduces the mutated state byte-for-byte on
// a second world — the composition contract the chained-snapshot restore
// path depends on.
func deltaRoundTrip(t *testing.T, p int, summa bool) {
	t.Helper()
	g := testGraph(t)
	in := dgraph.ScatterInput{Graph: g}

	baseBlobs := make([][]byte, p)
	deltaBlobs := make([][]byte, p)
	wantBlobs := make([][]byte, p)
	var want int64
	w1 := mpi.NewWorld(p, mpi.Config{Model: mpi.DefaultCostModel(), ComputeSlots: 1})
	_, err := w1.Run(func(c *mpi.Comm) (any, error) {
		d, err := in.Build(c)
		if err != nil {
			return nil, err
		}
		qr, qc := mpi.FactorGrid(c.Size())
		prep, err := PrepareGrid(c, d, qr, qc, summa, Options{})
		if err != nil {
			return nil, err
		}
		baseBlobs[c.Rank()] = EncodePrepared(prep)
		prep.EnableSnapshotTracking()

		// Mutate like the write path between two snapshots: grow the vertex
		// space (identity labels in the overflow region), splice entries in
		// and out — edges incident to grown ids, which provably do not exist
		// yet — rewrite a label slot in place, churn the degree-dirty set,
		// and adjust the totals.
		if err := prep.GrowTo(prep.N() + 5); err != nil {
			return nil, err
		}
		splice(c, prep, [][2]int32{{3, 12}, {5, 13}, {11, 14}}, nil)
		splice(c, prep, [][2]int32{{1, 15}}, [][2]int32{{3, 12}})
		_, labels := prep.Labels()
		if len(labels) >= 2 {
			labels[0], labels[1] = labels[1], labels[0]
			prep.MarkLabelSlot(0)
			prep.MarkLabelSlot(1)
		}
		prep.MarkDegreeDirty([]int32{1, 5, 9, 12})
		prep.AdjustTotals(3, 7)
		prep.SetSpaceVersion(prep.Space().Version + 1)

		deltaBlobs[c.Rank()] = EncodePreparedDelta(prep)
		wantBlobs[c.Rank()] = EncodePrepared(prep)
		res, err := CountPrepared(c, prep, Options{})
		if err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			want = res.Triangles
		}
		return nil, nil
	})
	w1.Close()
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < p; r++ {
		if len(deltaBlobs[r]) >= len(baseBlobs[r]) {
			t.Errorf("rank %d: delta blob %dB is no smaller than its base %dB",
				r, len(deltaBlobs[r]), len(baseBlobs[r]))
		}
	}

	w2 := mpi.NewWorld(p, mpi.Config{Model: mpi.DefaultCostModel(), ComputeSlots: 1})
	defer w2.Close()
	results, err := w2.Run(func(c *mpi.Comm) (any, error) {
		prep, err := DecodeChain([][]byte{baseBlobs[c.Rank()], deltaBlobs[c.Rank()]}, c.Rank(), p)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(EncodePrepared(prep), wantBlobs[c.Rank()]) {
			t.Errorf("rank %d: base+delta state differs from the mutated original", c.Rank())
		}
		return CountPrepared(c, prep, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].(*Result)
	if got.Triangles != want {
		t.Fatalf("composed state counts %d triangles, mutated original counted %d", got.Triangles, want)
	}
}

func TestPreparedDeltaRoundTripCannon(t *testing.T) { deltaRoundTrip(t, 4, false) }
func TestPreparedDeltaRoundTripSUMMA(t *testing.T)  { deltaRoundTrip(t, 6, true) }
func TestPreparedDeltaRoundTripSingle(t *testing.T) { deltaRoundTrip(t, 1, false) }

// TestPreparedDeltaEmpty: a delta taken with nothing dirty applies as a
// no-op (modulo the always-carried scalars).
func TestPreparedDeltaEmpty(t *testing.T) {
	g := testGraph(t)
	in := dgraph.ScatterInput{Graph: g}
	var base, delta, want []byte
	w := mpi.NewWorld(1, mpi.Config{Model: mpi.DefaultCostModel(), ComputeSlots: 1})
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		d, err := in.Build(c)
		if err != nil {
			return nil, err
		}
		prep, err := Prepare(c, d, Options{})
		if err != nil {
			return nil, err
		}
		base = EncodePrepared(prep)
		prep.EnableSnapshotTracking()
		delta = EncodePreparedDelta(prep)
		want = EncodePrepared(prep)
		return nil, nil
	})
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := DecodeChain([][]byte{base, delta}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodePrepared(prep), want) {
		t.Fatal("empty delta changed the state")
	}
}

func TestApplyPreparedDeltaRejectsDamage(t *testing.T) {
	g := testGraph(t)
	in := dgraph.ScatterInput{Graph: g}
	var base, delta []byte
	w := mpi.NewWorld(1, mpi.Config{Model: mpi.DefaultCostModel(), ComputeSlots: 1})
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		d, err := in.Build(c)
		if err != nil {
			return nil, err
		}
		prep, err := Prepare(c, d, Options{})
		if err != nil {
			return nil, err
		}
		base = EncodePrepared(prep)
		prep.EnableSnapshotTracking()
		if err := prep.GrowTo(prep.N() + 5); err != nil {
			return nil, err
		}
		splice(c, prep, [][2]int32{{0, 12}, {2, 13}}, nil)
		prep.MarkDegreeDirty([]int32{1, 5})
		delta = EncodePreparedDelta(prep)
		return nil, nil
	})
	w.Close()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     nil,
		"truncated": delta[:len(delta)/2],
		"badmagic":  append([]byte{9, 9, 9, 9}, delta[4:]...),
		"badver":    append(append([]byte{}, delta[:4]...), append([]byte{0xFF, 0, 0, 0}, delta[8:]...)...),
		"trailing":  append(append([]byte{}, delta...), 0, 0, 0, 0),
		"basekind":  base, // a base blob is not a delta blob
	}
	for name, b := range cases {
		if _, err := DecodeChain([][]byte{base, b}, 0, 1); err == nil {
			t.Errorf("%s: apply succeeded, want error", name)
		}
	}

	// Wrong grid position: the delta describes rank 0 of a 1-rank world.
	// The base's grid would fail the chain first, so the delta is replayed
	// onto the state its base decodes to.
	prep, err := DecodePrepared(base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.applyDelta(delta, 0, 4, false); err == nil {
		t.Error("apply on a 4-rank world of a 1-rank delta succeeded")
	}
}
