package tc2d

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"tc2d/internal/core"
)

// In-place splice differential: the resident blocks are now rewritten where
// they lie, with capacity slack behind them, for hundreds of batches on end.
// A long mixed stream must leave every count equal to the sequential oracle,
// and the slack must never reach a byte format: the live cluster's ranks and
// the ranks of a twin restored from its snapshot — packed arrays straight out
// of the decoder — must encode to identical blobs.

// rankBlobs encodes every rank's resident state of an in-process cluster.
func rankBlobs(t *testing.T, cl *Cluster) [][]byte {
	t.Helper()
	st := cl.eng.(*localEngine).store
	blobs := make([][]byte, cl.Info().Ranks)
	for r := range blobs {
		pr, err := st.get(r)
		if err != nil {
			t.Fatal(err)
		}
		blobs[r] = core.EncodePrepared(pr)
	}
	return blobs
}

// spliceStreamBatch draws one batch over the oracle's current graph: deletes
// of present edges and inserts of absent ones, endpoints from the hot ids
// (the first 12) or uniform, sometimes an edge to a brand-new id or an
// explicit AddVertices.
func spliceStreamBatch(rng *rand.Rand, o *growOracle, hot bool) []EdgeUpdate {
	pick := func() int32 {
		if hot {
			return int32(rng.Intn(12))
		}
		return int32(rng.Intn(int(o.n)))
	}
	var batch []EdgeUpdate
	named := map[[2]int32]bool{}
	var present [][2]int32
	for e := range o.edges {
		if !hot || (e[0] < 12 && e[1] < 12) {
			present = append(present, e)
		}
	}
	for d := 0; d < 6 && len(present) > 0; d++ {
		if e := present[rng.Intn(len(present))]; !named[e] {
			named[e] = true
			batch = append(batch, EdgeUpdate{U: e[1], V: e[0], Op: UpdateDelete})
		}
	}
	for i := 0; i < 10; i++ {
		u, v := pick(), pick()
		if e := [2]int32{min(u, v), max(u, v)}; u != v && !named[e] && !o.edges[e] {
			named[e] = true
			batch = append(batch, EdgeUpdate{U: u, V: v, Op: UpdateInsert})
		}
	}
	switch rng.Intn(6) {
	case 0:
		batch = append(batch, EdgeUpdate{U: int32(o.n) + int32(rng.Intn(2)), V: pick(), Op: UpdateInsert})
	case 1:
		batch = append(batch, EdgeUpdate{U: int32(1 + rng.Intn(2)), Op: UpdateAddVertices})
	}
	return batch
}

func runSpliceDifferential(t *testing.T, opt Options, seed int64) {
	t.Helper()
	dir := t.TempDir()
	opt.PersistDir = dir
	g, err := GenerateRMAT(G500, 7, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(seed))
	o := newGrowOracle(g)
	for b := 1; b <= 200; b++ {
		batch := spliceStreamBatch(rng, o, b%3 != 0)
		if b%9 == 0 {
			// Removals ride their own batch: a batch may not remove a
			// vertex and also update its edges.
			batch = []EdgeUpdate{{U: int32(rng.Intn(int(o.n))), Op: UpdateRemoveVertex}}
		}
		if _, err := cl.ApplyUpdates(batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		o.apply(batch)
		if b%20 != 0 {
			continue
		}
		res, err := cl.Count(QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := CountSequential(o.graph(t)); res.Triangles != want {
			t.Fatalf("batch %d: cluster counts %d triangles, oracle %d", b, res.Triangles, want)
		}
		if b%100 != 0 {
			continue
		}
		// Snapshot, restore a twin from a copy of the directory, compare.
		if _, err := cl.Snapshot(); err != nil {
			t.Fatalf("batch %d: snapshot: %v", b, err)
		}
		twinDir := t.TempDir()
		if err := os.CopyFS(twinDir, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		twin, err := OpenCluster(twinDir, opt)
		if err != nil {
			t.Fatalf("batch %d: restoring the twin: %v", b, err)
		}
		live, restored := rankBlobs(t, cl), rankBlobs(t, twin)
		twin.Close()
		for r := range live {
			if !bytes.Equal(live[r], restored[r]) {
				t.Fatalf("batch %d rank %d: live state encodes to %d bytes, its restored twin to %d — not identical",
					b, r, len(live[r]), len(restored[r]))
			}
		}
	}
}

func TestSpliceDifferentialCannon(t *testing.T) {
	runSpliceDifferential(t, Options{Ranks: 4}, 211)
}

func TestSpliceDifferentialSUMMA(t *testing.T) {
	runSpliceDifferential(t, Options{Ranks: 6}, 212)
}
