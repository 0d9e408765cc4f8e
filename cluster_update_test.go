package tc2d

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Dynamic-update differential tests: every batch's incrementally maintained
// triangle/edge/wedge counts must exactly match (a) the sequential oracle
// on the mutated graph and (b) a from-scratch cluster built over it, with
// pure delta applies reporting zero preprocessing operations.

// edgeOracle mirrors the cluster's update semantics on a plain edge set.
type edgeOracle struct {
	n     int32
	edges map[[2]int32]bool
}

func newEdgeOracle(g *Graph) *edgeOracle {
	o := &edgeOracle{n: g.N, edges: map[[2]int32]bool{}}
	for v := int32(0); v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				o.edges[[2]int32{v, u}] = true
			}
		}
	}
	return o
}

func (o *edgeOracle) apply(batch []EdgeUpdate) {
	for _, upd := range batch {
		u, v := upd.U, upd.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		o.n = max(o.n, v+1) // an edge op admits the ids it names
		k := [2]int32{u, v}
		if upd.Op == UpdateInsert {
			o.edges[k] = true
		} else {
			delete(o.edges, k)
		}
	}
}

func (o *edgeOracle) graph(t *testing.T) *Graph {
	t.Helper()
	list := make([]Edge, 0, len(o.edges))
	for e := range o.edges {
		list = append(list, Edge{U: e[0], V: e[1]})
	}
	g, err := NewGraph(o.n, list)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomBatch mixes deletions of existing edges with insertions of random
// pairs (some already present, exercising skips), plus noise the
// canonicalizer must absorb: self loops, reversed duplicates.
func randomBatch(rng *rand.Rand, o *edgeOracle, deletes, inserts int) []EdgeUpdate {
	var batch []EdgeUpdate
	deleted := map[[2]int32]bool{}
	existing := make([][2]int32, 0, len(o.edges))
	for e := range o.edges {
		existing = append(existing, e)
	}
	for d := 0; d < deletes && d < len(existing); d++ {
		e := existing[rng.Intn(len(existing))]
		if deleted[e] {
			continue
		}
		deleted[e] = true
		batch = append(batch, EdgeUpdate{U: e[1], V: e[0], Op: UpdateDelete})
	}
	for i := 0; i < inserts; i++ {
		u, v := int32(rng.Intn(int(o.n))), int32(rng.Intn(int(o.n)))
		if u == v {
			continue // the one deliberate self loop below keeps SkippedLoops predictable
		}
		if u > v {
			u, v = v, u
		}
		if deleted[[2]int32{u, v}] {
			continue // a conflicting insert+delete batch is rejected by design
		}
		batch = append(batch, EdgeUpdate{U: u, V: v, Op: UpdateInsert})
		if rng.Intn(4) == 0 { // duplicate entry, must collapse
			batch = append(batch, EdgeUpdate{U: v, V: u, Op: UpdateInsert})
		}
	}
	batch = append(batch, EdgeUpdate{U: 3, V: 3, Op: UpdateInsert}) // self loop
	return batch
}

func wedgesOf(g *Graph) int64 {
	var w int64
	for v := int32(0); v < g.N; v++ {
		d := int64(g.Degree(v))
		w += d * (d - 1) / 2
	}
	return w
}

// runDifferential streams randomized batches into a cluster whose ranks
// spans places (see newTestCluster).
func runDifferential(t *testing.T, opt Options, spans []int, scale, batches int, seed int64) {
	t.Helper()
	g, err := GenerateRMAT(G500, scale, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Pure delta applies only: the stream stays well under rebuildFraction
	// of M, so no staleness rebuild runs; rebuilds are tested separately.
	cl, err := newTestCluster(t, g, opt, spans)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(seed))
	oracle := newEdgeOracle(g)
	for b := 0; b < batches; b++ {
		batch := randomBatch(rng, oracle, 8+rng.Intn(8), 16+rng.Intn(16))
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		oracle.apply(batch)
		gm := oracle.graph(t)
		want := CountSequential(gm)
		if res.Triangles != want {
			t.Fatalf("batch %d: maintained triangles %d, oracle %d (delta %d)",
				b, res.Triangles, want, res.DeltaTriangles)
		}
		if res.M != gm.NumEdges() {
			t.Errorf("batch %d: M=%d, oracle %d", b, res.M, gm.NumEdges())
		}
		if res.Wedges != wedgesOf(gm) {
			t.Errorf("batch %d: Wedges=%d, oracle %d", b, res.Wedges, wedgesOf(gm))
		}
		if res.PreOps != 0 || res.Rebuilt {
			t.Errorf("batch %d: PreOps=%d Rebuilt=%v — pure delta applies must not preprocess",
				b, res.PreOps, res.Rebuilt)
		}
		if res.SkippedLoops != 1 {
			t.Errorf("batch %d: SkippedLoops=%d, want 1", b, res.SkippedLoops)
		}
		// Every few batches, a full query over the spliced blocks and the
		// maintained info must agree with the oracle too.
		if b%3 == 2 {
			qres, err := cl.Count(QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if qres.Triangles != want {
				t.Fatalf("batch %d: query over spliced blocks %d, oracle %d", b, qres.Triangles, want)
			}
			info := cl.Info()
			if info.M != gm.NumEdges() || info.Wedges != wedgesOf(gm) {
				t.Errorf("batch %d: Info M=%d Wedges=%d, oracle M=%d Wedges=%d",
					b, info.M, info.Wedges, gm.NumEdges(), wedgesOf(gm))
			}
		}
	}

	// Final cross-checks: transitivity from maintained state, and a
	// from-scratch cluster over the mutated graph.
	gm := oracle.graph(t)
	tr, err := cl.Transitivity()
	if err != nil {
		t.Fatal(err)
	}
	if want := Transitivity(gm); math.Abs(tr-want) > 1e-12 {
		t.Errorf("transitivity after updates %v, oracle %v", tr, want)
	}
	fresh, err := NewCluster(gm, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fres, err := fresh.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := CountSequential(gm)
	if fres.Triangles != want {
		t.Fatalf("from-scratch cluster on mutated graph: %d, oracle %d", fres.Triangles, want)
	}
	if info := cl.Info(); info.Updates != int64(batches) {
		t.Errorf("Info.Updates=%d, want %d", info.Updates, batches)
	}
}

func TestClusterUpdatesDifferentialCannon(t *testing.T) {
	runDifferential(t, Options{Ranks: 4}, nil, 10, 8, 1)
}

func TestClusterUpdatesDifferentialSingleRank(t *testing.T) {
	runDifferential(t, Options{Ranks: 1}, nil, 9, 6, 2)
}

func TestClusterUpdatesDifferentialSUMMA(t *testing.T) {
	runDifferential(t, Options{Ranks: 6}, nil, 10, 8, 3)
}

func TestClusterUpdatesDifferentialTCP(t *testing.T) {
	runDifferential(t, Options{Ranks: 4}, []int{2, 2}, 9, 6, 5)
}

// TestClusterUpdatesRebuild drives the staleness machinery: with batches
// sized so that three of them cross rebuildFraction of M, the cluster must
// rebuild mid-stream, keep every count exact, and keep routing
// post-rebuild batches through the composed label map. An explicit
// Rebuild call must also be a count-preserving no-op on the graph itself.
func TestClusterUpdatesRebuild(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 78)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(9))
	oracle := newEdgeOracle(g)
	per := int(rebuildFraction*float64(g.NumEdges()))/3 + 1
	sawRebuild := false
	for b := 0; b < 8; b++ {
		batch := randomBatch(rng, oracle, per/3, per)
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		oracle.apply(batch)
		want := CountSequential(oracle.graph(t))
		if res.Triangles != want {
			t.Fatalf("batch %d: maintained %d, oracle %d (rebuilt=%v)", b, res.Triangles, want, res.Rebuilt)
		}
		if res.Rebuilt {
			sawRebuild = true
			if res.PreOps == 0 {
				t.Errorf("batch %d: rebuilt but PreOps=0", b)
			}
			qres, err := cl.Count(QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if qres.Triangles != want {
				t.Fatalf("batch %d: post-rebuild query %d, oracle %d", b, qres.Triangles, want)
			}
		}
	}
	if !sawRebuild {
		t.Fatal("staleness threshold never triggered a rebuild")
	}
	if cl.Info().Rebuilds == 0 {
		t.Error("Info.Rebuilds=0 after observed rebuild")
	}

	// Explicit rebuild, then one more differential batch.
	before := cl.Info().Rebuilds
	if err := cl.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if cl.Info().Rebuilds != before+1 {
		t.Errorf("Rebuilds=%d after explicit Rebuild, want %d", cl.Info().Rebuilds, before+1)
	}
	batch := randomBatch(rng, oracle, 5, 10)
	res, err := cl.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	oracle.apply(batch)
	if want := CountSequential(oracle.graph(t)); res.Triangles != want {
		t.Fatalf("post-explicit-rebuild batch: maintained %d, oracle %d", res.Triangles, want)
	}
}

// TestClusterUpdatesConcurrentWithQueries races readers against the write
// path: queries and update batches from concurrent goroutines serialize
// into epochs, every query must observe some consistent prefix of the
// update stream, and the final state must match the oracle.
func TestClusterUpdatesConcurrentWithQueries(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 80)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(11))
	oracle := newEdgeOracle(g)
	const batches = 5
	prepared := make([][]EdgeUpdate, batches)
	counts := make([]int64, 0, batches+1)
	counts = append(counts, CountSequential(g))
	for b := range prepared {
		prepared[b] = randomBatch(rng, oracle, 6, 12)
		oracle.apply(prepared[b])
		counts = append(counts, CountSequential(oracle.graph(t)))
	}
	valid := map[int64]bool{}
	for _, c := range counts {
		valid[c] = true
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, batch := range prepared {
			if _, err := cl.ApplyUpdates(batch); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 4; q++ {
				res, err := cl.Count(QueryOptions{})
				if err != nil {
					errCh <- err
					return
				}
				if !valid[res.Triangles] {
					errCh <- fmt.Errorf("query saw %d triangles, not any batch prefix %v", res.Triangles, counts)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := counts[len(counts)-1]; res.Triangles != want {
		t.Fatalf("final count %d, oracle %d", res.Triangles, want)
	}
}

// TestClusterUpdatesValidation covers the rejection and closed paths.
func TestClusterUpdatesValidation(t *testing.T) {
	g, err := GenerateRMAT(G500, 8, 8, 79)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Beyond-range endpoints are no longer errors: the vertex space is
	// elastic and the batch grows it.
	if res, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: g.N, Op: UpdateInsert}}); err != nil {
		t.Errorf("beyond-range insert should grow the graph, got %v", err)
	} else if res.GrownTo != int64(g.N)+1 || res.Inserted != 1 {
		t.Errorf("growth batch: GrownTo=%d Inserted=%d, want %d and 1", res.GrownTo, res.Inserted, int64(g.N)+1)
	}
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: -1, V: 2, Op: UpdateInsert}}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative endpoint: err=%v, want ErrVertexRange", err)
	}
	if _, err := cl.RemoveVertices([]int32{2 * g.N}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("removal outside the space: err=%v, want ErrVertexRange", err)
	}
	if _, err := cl.ApplyUpdates([]EdgeUpdate{
		{U: 1, V: 2, Op: UpdateInsert},
		{U: 2, V: 1, Op: UpdateDelete},
	}); err == nil {
		t.Error("conflicting insert+delete should fail")
	}
	cl.Close()
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}}); err != ErrClosed {
		t.Errorf("ApplyUpdates after Close: %v, want ErrClosed", err)
	}
	if err := cl.Rebuild(); err != ErrClosed {
		t.Errorf("Rebuild after Close: %v, want ErrClosed", err)
	}
}
