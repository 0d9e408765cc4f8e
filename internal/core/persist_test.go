package core

import (
	"bytes"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
)

// preparedRoundTrip builds resident state on every rank of a p-rank world,
// encodes it, decodes the blobs on a SECOND world, and checks the decoded
// state serves queries identically — with zero preprocessing cost.
func preparedRoundTrip(t *testing.T, p int, summa bool) {
	t.Helper()
	g := testGraph(t)
	in := dgraph.ScatterInput{Graph: g}
	var want int64

	blobs := make([][]byte, p)
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
		res, err := CountPrepared(c, prep, Options{})
		if err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			want = res.Triangles
		}
		blobs[c.Rank()] = EncodePrepared(prep)
		return nil, nil
	})
	w1.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Determinism: re-encoding decoded state yields the identical blob.
	w2 := mpi.NewWorld(p, mpi.Config{Model: mpi.DefaultCostModel(), ComputeSlots: 1})
	defer w2.Close()
	results, err := w2.Run(func(c *mpi.Comm) (any, error) {
		prep, err := DecodePrepared(blobs[c.Rank()], c.Rank(), p)
		if err != nil {
			return nil, err
		}
		if prep.PreOps() != 0 {
			t.Errorf("rank %d: decoded state reports preprocessing cost (PreOps=%d)", c.Rank(), prep.PreOps())
		}
		if !bytes.Equal(EncodePrepared(prep), blobs[c.Rank()]) {
			t.Errorf("rank %d: re-encode of decoded state differs", c.Rank())
		}
		return CountPrepared(c, prep, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].(*Result)
	if got.Triangles != want {
		t.Fatalf("decoded state counts %d triangles, original counted %d", got.Triangles, want)
	}
	if got.PreOps != 0 {
		t.Fatalf("decoded state query reports PreOps=%d, want 0", got.PreOps)
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// A graph with uneven degrees so the relabel permutation is nontrivial.
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
		{U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}, {U: 8, V: 9}, {U: 9, V: 6},
		{U: 6, V: 8}, {U: 2, V: 7}, {U: 1, V: 9}, {U: 10, V: 0}, {U: 10, V: 1},
	}
	g, err := graph.FromEdges(11, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPreparedRoundTripCannon(t *testing.T) { preparedRoundTrip(t, 4, false) }
func TestPreparedRoundTripSUMMA(t *testing.T)  { preparedRoundTrip(t, 6, true) }
func TestPreparedRoundTripSingle(t *testing.T) { preparedRoundTrip(t, 1, false) }

func TestDecodePreparedRejectsDamage(t *testing.T) {
	g := testGraph(t)
	in := dgraph.ScatterInput{Graph: g}
	var blob []byte
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
		blob = EncodePrepared(prep)
		return nil, nil
	})
	w.Close()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     nil,
		"truncated": blob[:len(blob)/2],
		"badmagic":  append([]byte{9, 9, 9, 9}, blob[4:]...),
		"badver":    append(append([]byte{}, blob[:4]...), append([]byte{0xFF, 0, 0, 0}, blob[8:]...)...),
		"trailing":  append(append([]byte{}, blob...), 0, 0, 0, 0),
	}
	for name, b := range cases {
		if _, err := DecodePrepared(b, 0, 1); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// Wrong grid position.
	if _, err := DecodePrepared(blob, 0, 4); err == nil {
		t.Error("decode on a 4-rank world of a 1-rank blob succeeded")
	}
}
