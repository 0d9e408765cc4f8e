package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

func testCfg() mpi.Config {
	return mpi.Config{ComputeSlots: 4}
}

// countGraph runs the distributed pipeline on a world of p ranks over the
// full graph g and returns rank 0's Result.
func countGraph(p int, g *graph.Graph, opt Options) (*Result, error) {
	results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		return Count(c, in, opt)
	})
	if err != nil {
		return nil, err
	}
	return results[0].(*Result), nil
}

func countVia(t *testing.T, g *graph.Graph, p int, opt Options) *Result {
	t.Helper()
	res, err := countGraph(p, g, opt)
	if err != nil {
		t.Fatalf("countGraph(p=%d): %v", p, err)
	}
	return res
}

func mustRMAT(t *testing.T, params rmat.Params, scale, ef int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := params.Generate(scale, ef, seed)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	return g
}

func TestCountTriangleGraph(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		res := countVia(t, g, p, Options{})
		if res.Triangles != 1 {
			t.Errorf("p=%d: %d triangles, want 1", p, res.Triangles)
		}
		if res.N != 3 || res.M != 3 {
			t.Errorf("p=%d: N=%d M=%d", p, res.N, res.M)
		}
	}
}

func TestCountCompleteGraphs(t *testing.T) {
	// K_n has C(n,3) triangles.
	for _, n := range []int32{4, 8, 13, 20} {
		var edges []graph.Edge
		for i := int32(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(n) * int64(n-1) * int64(n-2) / 6
		for _, p := range []int{1, 4, 9} {
			res := countVia(t, g, p, Options{})
			if res.Triangles != want {
				t.Errorf("K%d p=%d: %d triangles, want %d", n, p, res.Triangles, want)
			}
		}
	}
}

func TestCountTriangleFree(t *testing.T) {
	// Complete bipartite K_{5,7} has no triangles.
	var edges []graph.Edge
	for i := int32(0); i < 5; i++ {
		for j := int32(5); j < 12; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g, err := graph.FromEdges(12, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, 9} {
		if res := countVia(t, g, p, Options{}); res.Triangles != 0 {
			t.Errorf("p=%d: %d triangles in bipartite graph", p, res.Triangles)
		}
	}
}

func TestCountMatchesSequentialAcrossGrids(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 10, 8, 42)
	want := seqtc.Count(g)
	if want == 0 {
		t.Fatal("test graph has no triangles; regenerate")
	}
	for _, p := range []int{1, 4, 9, 16, 25} {
		res := countVia(t, g, p, Options{})
		if res.Triangles != want {
			t.Errorf("p=%d: %d triangles, want %d", p, res.Triangles, want)
		}
		if res.M != g.NumEdges() {
			t.Errorf("p=%d: M=%d want %d", p, res.M, g.NumEdges())
		}
	}
}

func TestCountBothEnumerations(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 7)
	want := seqtc.Count(g)
	for _, enum := range []Enumeration{EnumJIK, EnumIJK} {
		for _, p := range []int{1, 9, 16} {
			res := countVia(t, g, p, Options{Enumeration: enum})
			if res.Triangles != want {
				t.Errorf("enum=%v p=%d: %d want %d", enum, p, res.Triangles, want)
			}
		}
	}
}

// TestPrepareGridRefusesIJK: a resident state is laid out for ⟨j,i,k⟩, on
// either schedule, so PrepareGrid refuses the ⟨i,j,k⟩ rule on every rank
// before any exchange, with an error that names the one entry counting
// under it.
func TestPrepareGridRefusesIJK(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 6, 4, 1)
	for _, bcast := range []bool{false, true} {
		_, err := mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
			in, err := dgraph.ScatterInput{Graph: g}.Build(c)
			if err != nil {
				return nil, err
			}
			_, err = PrepareGrid(c, in, 2, 2, bcast, Options{Enumeration: EnumIJK})
			return nil, err
		})
		if err == nil || !strings.Contains(err.Error(), "CountGrid") {
			t.Errorf("bcast=%v: PrepareGrid under ⟨i,j,k⟩: %v, want an error naming CountGrid", bcast, err)
		}
	}
}

func TestCountOptionTogglesPreserveCount(t *testing.T) {
	g := mustRMAT(t, rmat.Twitterish, 9, 10, 99)
	want := seqtc.Count(g)
	opts := []Options{
		{NoDoublySparse: true},
		{NoDirectHash: true},
		{NoEarlyBreak: true},
		{NoBlob: true},
		{NoDoublySparse: true, NoDirectHash: true, NoEarlyBreak: true, NoBlob: true},
		{Enumeration: EnumIJK, NoDoublySparse: true, NoEarlyBreak: true},
	}
	for _, p := range []int{4, 9} {
		base := countVia(t, g, p, Options{})
		for i, opt := range opts {
			res := countVia(t, g, p, opt)
			if res.Triangles != want {
				t.Errorf("opt[%d]=%+v p=%d: %d want %d", i, opt, p, res.Triangles, want)
			}
			if opt.Enumeration != EnumJIK {
				continue
			}
			// Under the same rule the toggles intersect the same pairs, the
			// probing table makes exactly the bitmap's lookups, and only
			// NoEarlyBreak adds any.
			if res.MapTasks != base.MapTasks {
				t.Errorf("opt[%d] p=%d: MapTasks %d, default kernel %d", i, p, res.MapTasks, base.MapTasks)
			}
			if opt.NoEarlyBreak {
				if res.Probes <= base.Probes {
					t.Errorf("opt[%d] p=%d: %d probes without early break, %d with", i, p, res.Probes, base.Probes)
				}
			} else if res.Probes != base.Probes {
				t.Errorf("opt[%d] p=%d: %d probes, default kernel %d", i, p, res.Probes, base.Probes)
			}
		}
	}
}

func TestCountERGraph(t *testing.T) {
	g, err := rmat.ErdosRenyi(512, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := seqtc.Count(g)
	for _, p := range []int{1, 16} {
		res := countVia(t, g, p, Options{})
		if res.Triangles != want {
			t.Errorf("p=%d: %d want %d", p, res.Triangles, want)
		}
	}
}

func TestCountStarAndPath(t *testing.T) {
	// Star: no triangles; path: no triangles.
	star := make([]graph.Edge, 0, 20)
	for i := int32(1); i <= 20; i++ {
		star = append(star, graph.Edge{U: 0, V: i})
	}
	gs, _ := graph.FromEdges(21, star)
	path := make([]graph.Edge, 0, 20)
	for i := int32(0); i < 20; i++ {
		path = append(path, graph.Edge{U: i, V: i + 1})
	}
	gp, _ := graph.FromEdges(21, path)
	for _, p := range []int{1, 4, 9} {
		if res := countVia(t, gs, p, Options{}); res.Triangles != 0 {
			t.Errorf("star p=%d: %d", p, res.Triangles)
		}
		if res := countVia(t, gp, p, Options{}); res.Triangles != 0 {
			t.Errorf("path p=%d: %d", p, res.Triangles)
		}
	}
}

func TestCountPropertyRandomGraphs(t *testing.T) {
	// Property: for random ER graphs, the distributed count on a 3×3 grid
	// equals the sequential reference count.
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int32(nRaw)%200 + 30
		m := int64(mRaw)%2000 + 50
		g, err := rmat.ErdosRenyi(n, m, seed)
		if err != nil {
			return false
		}
		want := seqtc.Count(g)
		res, err := countGraph(9, g, Options{})
		if err != nil {
			t.Logf("countGraph: %v", err)
			return false
		}
		return res.Triangles == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCountTinyGraphOnBigGrid(t *testing.T) {
	// A graph smaller than the grid: most ranks own empty blocks.
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	res, err := countGraph(25, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Fatalf("triangles=%d", res.Triangles)
	}
}

func TestCountNonSquareWorld(t *testing.T) {
	g, _ := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1}})
	_, err := countGraph(6, g, Options{})
	if err == nil {
		t.Fatal("expected error for non-square world size")
	}
}

func TestResultInstrumentation(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 11)
	res, err := countGraph(9, g, Options{TrackPerShift: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes <= 0 {
		t.Errorf("probes = %d", res.Probes)
	}
	if res.MapTasks <= 0 {
		t.Errorf("map tasks = %d", res.MapTasks)
	}
	if res.PreOps <= 0 {
		t.Errorf("pre ops = %d", res.PreOps)
	}
	if len(res.LocalPerShift) != 3 {
		t.Errorf("per-shift records = %d, want 3 (=√9)", len(res.LocalPerShift))
	}
	if res.PreprocessTime <= 0 || res.CountTime <= 0 {
		t.Errorf("phase times: pre=%v count=%v", res.PreprocessTime, res.CountTime)
	}
	if res.TotalTime < res.PreprocessTime+res.CountTime-1e-9 {
		t.Errorf("total %v < pre+count %v", res.TotalTime, res.PreprocessTime+res.CountTime)
	}
}

func TestMapTasksGrowWithRanks(t *testing.T) {
	// Table 4's redundant-work effect: the number of map-intersection
	// tasks must not shrink as the grid grows.
	g := mustRMAT(t, rmat.G500, 10, 8, 21)
	prev := int64(0)
	for _, p := range []int{1, 4, 16} {
		res := countVia(t, g, p, Options{})
		if res.MapTasks < prev {
			t.Errorf("map tasks decreased: p=%d %d < %d", p, res.MapTasks, prev)
		}
		prev = res.MapTasks
	}
}

func TestNumWithResidue(t *testing.T) {
	for _, n := range []int64{1, 7, 8, 9, 100} {
		for q := 1; q <= 5; q++ {
			total := int32(0)
			for r := 0; r < q; r++ {
				cnt := numWithResidue(n, q, r)
				want := int32(0)
				for v := int64(r); v < n; v += int64(q) {
					want++
				}
				if cnt != want {
					t.Errorf("numWithResidue(%d,%d,%d)=%d want %d", n, q, r, cnt, want)
				}
				total += cnt
			}
			if int64(total) != n {
				t.Errorf("residues of n=%d q=%d sum to %d", n, q, total)
			}
		}
	}
}

// TestBlobRoundtrip: a resident block's bytes are its blob, and decoding
// them views the block's own arrays.
func TestBlobRoundtrip(t *testing.T) {
	b := blockOf([][]int32{{4, 7}, {}, {1, 2, 3}}, 0)
	xadj, adj, err := decodeCSRBlob(b.blob(), kindU, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(xadj, []int32{0, 2, 2, 5}) || !slices.Equal(adj, []int32{4, 7, 1, 2, 3}) {
		t.Fatalf("decoded %v %v", xadj, adj)
	}
	if &xadj[0] != &b.xadj[0] || &adj[0] != &b.adj[0] {
		t.Fatal("the decoded views do not alias the block's arrays")
	}
}

func TestSlowCodecRoundtrip(t *testing.T) {
	v := []int32{0, -1, 1 << 30, -(1 << 30), 123456}
	got := decodeInt32sSlow(encodeInt32sSlow(v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("slow codec mismatch at %d: %d != %d", i, got[i], v[i])
		}
	}
}
