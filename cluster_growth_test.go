package tc2d

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Vertex-elasticity differential tests: streams of mixed edge ops, vertex
// arrivals (implicit growth through beyond-range ids and explicit
// AddVertices) and vertex removals, cross-checked after every batch against
// a sequential oracle over the grown graph and finally against a
// from-scratch cluster — plus the overflow-fold contract: a rebuild must
// restore a pure cyclic layout (BaseN == N) without changing any count.

// growOracle mirrors the cluster's elastic vertex space on a plain edge
// set: n tracks the grown space, edge ops auto-admit new ids, removals
// drop incident edges and leave the id isolated.
type growOracle struct {
	n     int64
	edges map[[2]int32]bool
}

func newGrowOracle(g *Graph) *growOracle {
	o := &growOracle{n: int64(g.N), edges: map[[2]int32]bool{}}
	for v := int32(0); v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				o.edges[[2]int32{v, u}] = true
			}
		}
	}
	return o
}

// apply mirrors delta.Apply's semantics for one batch: explicit growth
// allocates above every referenced id, edges admit new ids, removals drop
// incident edges. It returns the explicit allocation base (-1 if none).
func (o *growOracle) apply(batch []EdgeUpdate) int64 {
	cursor := o.n
	var adds int64
	for _, upd := range batch {
		switch upd.Op {
		case UpdateInsert, UpdateDelete:
			if e := int64(upd.U) + 1; e > cursor {
				cursor = e
			}
			if e := int64(upd.V) + 1; e > cursor {
				cursor = e
			}
		case UpdateAddVertices:
			adds += int64(upd.U)
		}
	}
	base := int64(-1)
	if adds > 0 {
		base = cursor
		cursor += adds
	}
	o.n = cursor
	for _, upd := range batch {
		u, v := upd.U, upd.V
		switch upd.Op {
		case UpdateRemoveVertex:
			for e := range o.edges {
				if e[0] == u || e[1] == u {
					delete(o.edges, e)
				}
			}
		case UpdateInsert, UpdateDelete:
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			k := [2]int32{u, v}
			if upd.Op == UpdateInsert {
				o.edges[k] = true
			} else {
				delete(o.edges, k)
			}
		}
	}
	return base
}

func (o *growOracle) graph(t *testing.T) *Graph {
	t.Helper()
	list := make([]Edge, 0, len(o.edges))
	for e := range o.edges {
		list = append(list, Edge{U: e[0], V: e[1]})
	}
	g, err := NewGraph(int32(o.n), list)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// growthBatch builds one randomized batch mixing edge churn over the
// current space with vertex arrivals: edges whose endpoints lie beyond the
// current n (implicit growth, sometimes with id gaps) and explicit
// AddVertices entries.
func growthBatch(rng *rand.Rand, o *growOracle) []EdgeUpdate {
	var batch []EdgeUpdate
	deleted := map[[2]int32]bool{}
	existing := make([][2]int32, 0, len(o.edges))
	for e := range o.edges {
		existing = append(existing, e)
	}
	for d := 0; d < 4+rng.Intn(4) && len(existing) > 0; d++ {
		e := existing[rng.Intn(len(existing))]
		if deleted[e] {
			continue
		}
		deleted[e] = true
		batch = append(batch, EdgeUpdate{U: e[1], V: e[0], Op: UpdateDelete})
	}
	for i := 0; i < 8+rng.Intn(8); i++ {
		u, v := int32(rng.Intn(int(o.n))), int32(rng.Intn(int(o.n)))
		if u == v || deleted[[2]int32{min(u, v), max(u, v)}] {
			continue
		}
		batch = append(batch, EdgeUpdate{U: u, V: v, Op: UpdateInsert})
	}
	// Vertex arrivals: wire 1–3 brand-new ids (occasionally skipping a few
	// ids, which admits isolated vertices too) to random existing ones.
	arrivals := 1 + rng.Intn(3)
	next := int32(o.n) + int32(rng.Intn(2)) // maybe leave a gap
	for a := 0; a < arrivals; a++ {
		anchor := int32(rng.Intn(int(o.n)))
		batch = append(batch, EdgeUpdate{U: next, V: anchor, Op: UpdateInsert})
		if rng.Intn(2) == 0 && anchor > 0 {
			batch = append(batch, EdgeUpdate{U: next, V: anchor - 1, Op: UpdateInsert})
		}
		next += 1 + int32(rng.Intn(2))
	}
	if rng.Intn(3) == 0 {
		batch = append(batch, EdgeUpdate{U: int32(1 + rng.Intn(3)), Op: UpdateAddVertices})
	}
	return batch
}

// checkState compares the maintained cluster state against the oracle.
func checkGrowthState(t *testing.T, tag string, cl *Cluster, o *growOracle, res *UpdateResult) {
	t.Helper()
	gm := o.graph(t)
	want := CountSequential(gm)
	if res.Triangles != want {
		t.Fatalf("%s: maintained triangles %d, oracle %d (delta %d)", tag, res.Triangles, want, res.DeltaTriangles)
	}
	if res.GrownTo != o.n {
		t.Fatalf("%s: GrownTo=%d, oracle n=%d", tag, res.GrownTo, o.n)
	}
	if res.M != gm.NumEdges() {
		t.Errorf("%s: M=%d, oracle %d", tag, res.M, gm.NumEdges())
	}
	if res.Wedges != wedgesOf(gm) {
		t.Errorf("%s: Wedges=%d, oracle %d", tag, res.Wedges, wedgesOf(gm))
	}
}

// runGrowthDifferential streams growth batches into a cluster whose ranks
// spans places (see newTestCluster).
func runGrowthDifferential(t *testing.T, opt Options, spans []int, scale, batches int, seed int64) {
	t.Helper()
	g, err := GenerateRMAT(G500, scale, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := newTestCluster(t, g, opt, spans)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(seed))
	o := newGrowOracle(g)
	// baseN follows the staleness folds the stream trips: a drain that
	// rebuilt folded the whole space it ended with.
	baseN := int64(g.N)
	folded := func(res *UpdateResult) {
		if res.Rebuilt {
			baseN = o.n
		}
	}
	for b := 0; b < batches; b++ {
		batch := growthBatch(rng, o)
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		wantBase := o.apply(batch)
		if res.VertexBase != wantBase {
			t.Fatalf("batch %d: VertexBase=%d, oracle %d", b, res.VertexBase, wantBase)
		}
		checkGrowthState(t, "batch", cl, o, res)
		folded(res)

		// Sprinkle the dedicated vertex ops through the stream.
		if b%4 == 1 {
			ids := []int32{int32(rng.Intn(int(o.n)))}
			if rng.Intn(2) == 0 {
				ids = append(ids, int32(rng.Intn(int(o.n))))
			}
			res, err := cl.RemoveVertices(ids)
			if err != nil {
				t.Fatalf("batch %d remove %v: %v", b, ids, err)
			}
			rm := make([]EdgeUpdate, len(ids))
			for i, id := range ids {
				rm[i] = EdgeUpdate{U: id, Op: UpdateRemoveVertex}
			}
			o.apply(rm)
			uniq := map[int32]bool{}
			for _, id := range ids {
				uniq[id] = true
			}
			if res.RemovedVertices != len(uniq) {
				t.Errorf("batch %d: RemovedVertices=%d, want %d", b, res.RemovedVertices, len(uniq))
			}
			checkGrowthState(t, "remove", cl, o, res)
			folded(res)
		}
		if b%5 == 2 {
			res, err := cl.AddVertices(2)
			if err != nil {
				t.Fatalf("batch %d AddVertices: %v", b, err)
			}
			wantBase := o.apply([]EdgeUpdate{{U: 2, Op: UpdateAddVertices}})
			if res.VertexBase != wantBase || res.AddedVertices != 2 {
				t.Errorf("batch %d: AddVertices base=%d added=%d, want base %d added 2",
					b, res.VertexBase, res.AddedVertices, wantBase)
			}
			checkGrowthState(t, "add", cl, o, res)
			folded(res)
		}

		// Every few batches, a full query over the spliced (and grown)
		// blocks plus the Info snapshot must agree too.
		if b%3 == 2 {
			gm := o.graph(t)
			want := CountSequential(gm)
			qres, err := cl.Count(QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if qres.Triangles != want {
				t.Fatalf("batch %d: query over grown blocks %d, oracle %d", b, qres.Triangles, want)
			}
			if qres.N != o.n {
				t.Errorf("batch %d: query N=%d, oracle %d", b, qres.N, o.n)
			}
			info := cl.Info()
			if info.N != o.n || info.BaseN != baseN || info.OverflowN != o.n-baseN {
				t.Errorf("batch %d: Info N=%d BaseN=%d OverflowN=%d, oracle n=%d baseN=%d",
					b, info.N, info.BaseN, info.OverflowN, o.n, baseN)
			}
		}
	}

	// Final cross-checks: transitivity from maintained totals and a
	// from-scratch cluster over the grown graph.
	gm := o.graph(t)
	tr, err := cl.Transitivity()
	if err != nil {
		t.Fatal(err)
	}
	if want := Transitivity(gm); math.Abs(tr-want) > 1e-12 {
		t.Errorf("transitivity after growth %v, oracle %v", tr, want)
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
	if want := CountSequential(gm); fres.Triangles != want {
		t.Fatalf("from-scratch cluster on grown graph: %d, oracle %d", fres.Triangles, want)
	}
}

func TestClusterGrowthDifferentialCannon(t *testing.T) {
	runGrowthDifferential(t, Options{Ranks: 4}, nil, 9, 32, 21)
}

func TestClusterGrowthDifferentialSUMMA(t *testing.T) {
	runGrowthDifferential(t, Options{Ranks: 6}, nil, 9, 32, 22)
}

func TestClusterGrowthDifferentialCannonTCP(t *testing.T) {
	runGrowthDifferential(t, Options{Ranks: 4}, []int{2, 2}, 8, 30, 23)
}

func TestClusterGrowthDifferentialSUMMATCP(t *testing.T) {
	runGrowthDifferential(t, Options{Ranks: 6}, []int{3, 3}, 8, 30, 24)
}

func TestClusterGrowthDifferentialSingleRank(t *testing.T) {
	runGrowthDifferential(t, Options{Ranks: 1}, nil, 8, 30, 25)
}

// TestClusterGrowthFold is the acceptance contract of the elastic space: a
// cluster built with N vertices admits ids >= N, counts stay exact on the
// grown graph, and a rebuild folds the overflow region back into a pure
// cyclic layout (BaseN == N, overflow 0) without changing any count —
// after which the stream keeps flowing through the folded label map.
func TestClusterGrowthFold(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 92)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(31))
	o := newGrowOracle(g)
	for b := 0; b < 6; b++ {
		batch := growthBatch(rng, o)
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		o.apply(batch)
		checkGrowthState(t, "pre-fold", cl, o, res)
	}
	info := cl.Info()
	if info.OverflowN == 0 || info.BaseN != int64(g.N) || info.N != o.n {
		t.Fatalf("pre-fold Info: N=%d BaseN=%d OverflowN=%d, want growth over baseN=%d", info.N, info.BaseN, info.OverflowN, g.N)
	}
	versionBefore := info.SpaceVersion
	want := CountSequential(o.graph(t))

	if err := cl.Rebuild(); err != nil {
		t.Fatal(err)
	}
	info = cl.Info()
	if info.BaseN != o.n || info.N != o.n || info.OverflowN != 0 || info.OverflowFraction != 0 {
		t.Fatalf("fold did not restore a pure cyclic layout: N=%d BaseN=%d OverflowN=%d", info.N, info.BaseN, info.OverflowN)
	}
	if info.SpaceVersion <= versionBefore {
		t.Errorf("fold did not bump SpaceVersion: %d -> %d", versionBefore, info.SpaceVersion)
	}
	qres, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qres.Triangles != want || qres.N != o.n {
		t.Fatalf("post-fold count %d (N=%d), oracle %d (N=%d)", qres.Triangles, qres.N, want, o.n)
	}

	// The stream keeps flowing through the folded map: more growth batches
	// (routing both pre-fold overflow ids, folded ids and fresh arrivals).
	for b := 0; b < 6; b++ {
		batch := growthBatch(rng, o)
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("post-fold batch %d: %v", b, err)
		}
		o.apply(batch)
		checkGrowthState(t, "post-fold", cl, o, res)
	}
}

// TestClusterGrowthPastBitmapWords: the kernel sizes its bitmaps from the
// vertex count at the time of each count, never from the build. Starting from
// 640 vertices (five bitmap words on the Cannon grid, two on the SUMMA grid),
// each step admits ids up to a new top — overflow ids keep their id as label,
// so the top ids are the top intersection keys — and closes triangles through
// them, carrying the local key range past 320 and 384 on the Cannon grid
// (keys k div 2) and past 128 on the SUMMA grid (keys k div 6). The last top
// leaves exactly rebuildFraction of the base as overflow, so no staleness
// fold runs before the explicit one. Every count over the grown blocks, and
// over the folded ones after the rebuild, must match the oracle.
func TestClusterGrowthPastBitmapWords(t *testing.T) {
	const base = 640
	for _, ranks := range []int{4, 6} { // Cannon 2×2, SUMMA 2×3
		rm, err := GenerateRMAT(G500, 9, 8, 94)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGraph(base, rm.Edges())
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewCluster(g, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		o := newGrowOracle(g)
		count := func(tag string) {
			t.Helper()
			want := CountSequential(o.graph(t))
			res, err := cl.Count(QueryOptions{})
			if err != nil {
				t.Fatalf("ranks=%d %s: %v", ranks, tag, err)
			}
			if res.Triangles != want || res.N != o.n {
				t.Fatalf("ranks=%d %s: %d triangles over %d vertices, oracle %d over %d",
					ranks, tag, res.Triangles, res.N, want, o.n)
			}
		}
		for _, top := range []int32{660, 700, base + int32(rebuildFraction*base)} {
			a, b, c := top-1, top-2, top-3
			batch := []EdgeUpdate{{U: a, V: b}, {U: b, V: c}, {U: a, V: c}}
			for v := int32(0); v < 8; v++ {
				batch = append(batch, EdgeUpdate{U: a, V: v}, EdgeUpdate{U: b, V: v})
			}
			res, err := cl.ApplyUpdates(batch)
			if err != nil {
				t.Fatalf("ranks=%d grow to %d: %v", ranks, top, err)
			}
			o.apply(batch)
			checkGrowthState(t, "grow", cl, o, res)
			count("grown")
		}
		if info := cl.Info(); info.BaseN != base || info.Rebuilds != 0 {
			t.Fatalf("ranks=%d: grown blocks were folded early (BaseN=%d, %d rebuilds)", ranks, info.BaseN, info.Rebuilds)
		}
		if err := cl.Rebuild(); err != nil {
			t.Fatal(err)
		}
		count("folded")
		cl.Close()
	}
}

// TestClusterGrowthAutoFold checks that vertex-space overflow alone trips
// the staleness rebuild: pure vertex arrival (few edge churns) must
// eventually fold automatically.
func TestClusterGrowthAutoFold(t *testing.T) {
	g, err := GenerateRMAT(G500, 8, 8, 93)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	o := newGrowOracle(g)
	rng := rand.New(rand.NewSource(41))
	// Each batch admits a quarter of the ids the fold threshold allows, one
	// edge each: the fifth crosses it, while its edges stay far below
	// rebuildFraction of M — only overflow can trip the fold.
	arrivals := int(rebuildFraction*float64(g.N)) / 4
	sawFold := false
	for b := 0; b < 8 && !sawFold; b++ {
		var batch []EdgeUpdate
		for a := 0; a < arrivals; a++ { // pure arrival batch
			batch = append(batch, EdgeUpdate{U: int32(o.n) + int32(a), V: int32(rng.Intn(int(g.N))), Op: UpdateInsert})
		}
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		o.apply(batch)
		checkGrowthState(t, "auto-fold", cl, o, res)
		if res.Rebuilt {
			sawFold = true
			info := cl.Info()
			if info.OverflowN != 0 || info.BaseN != o.n {
				t.Errorf("auto fold left overflow: BaseN=%d N=%d OverflowN=%d", info.BaseN, info.N, info.OverflowN)
			}
		}
	}
	if !sawFold {
		t.Fatal("overflow growth never triggered a staleness fold")
	}
}

// TestClusterVertexRangeErrors covers the typed rejection paths.
func TestClusterVertexRangeErrors(t *testing.T) {
	g, err := GenerateRMAT(G500, 8, 8, 94)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4, MaxVertices: int64(g.N) + 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: -3, Op: UpdateInsert}}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative endpoint: err=%v, want ErrVertexRange", err)
	}
	if _, err := cl.RemoveVertices([]int32{g.N + 100}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("removal outside the space: err=%v, want ErrVertexRange", err)
	}
	// Within the cap: admitted.
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 1, V: g.N + 3, Op: UpdateInsert}}); err != nil {
		t.Errorf("growth within MaxVertices should succeed: %v", err)
	}
	// Beyond the cap: typed rejection, graph unchanged.
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 1, V: g.N + 100, Op: UpdateInsert}}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("growth beyond MaxVertices: err=%v, want ErrVertexRange", err)
	}
	if _, err := cl.AddVertices(1000); !errors.Is(err, ErrVertexRange) {
		t.Errorf("AddVertices beyond MaxVertices: err=%v, want ErrVertexRange", err)
	}
	if _, err := cl.AddVertices(0); err == nil {
		t.Error("AddVertices(0) should fail")
	}
	if info := cl.Info(); info.N != int64(g.N)+4 {
		t.Errorf("Info.N=%d after one admitted growth to %d", info.N, int64(g.N)+4)
	}

	// The cap must account for explicit allocations landing ABOVE the
	// batch's edge ids (the apply-side admission arithmetic): raw id g.N+5
	// raises the cursor to g.N+6, the 3 explicit ids land on top — g.N+9
	// exceeds the g.N+8 cap even though each piece alone would fit.
	if _, err := cl.ApplyUpdates([]EdgeUpdate{
		{U: 1, V: g.N + 5, Op: UpdateInsert},
		{U: 3, Op: UpdateAddVertices},
	}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("mixed growth beyond MaxVertices: err=%v, want ErrVertexRange", err)
	}
	if info := cl.Info(); info.N != int64(g.N)+4 {
		t.Errorf("Info.N=%d changed by a rejected batch", info.N)
	}
}
