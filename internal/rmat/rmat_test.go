package rmat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"tc2d/internal/graph"
)

func TestEdgeDeterministic(t *testing.T) {
	for i := int64(0); i < 100; i++ {
		a := G500.Edge(12, 7, i)
		b := G500.Edge(12, 7, i)
		if a != b {
			t.Fatalf("edge %d not deterministic", i)
		}
	}
}

func TestEdgeInRange(t *testing.T) {
	const scale = 10
	n := int32(1) << scale
	for i := int64(0); i < 1000; i++ {
		e := G500.Edge(scale, 3, i)
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			t.Fatalf("edge %d out of range: %+v", i, e)
		}
	}
}

func TestSlicesCompose(t *testing.T) {
	// Generating [0,100) must equal [0,37) ++ [37,100).
	whole := G500.EdgesSlice(10, 9, 0, 100)
	head := G500.EdgesSlice(10, 9, 0, 37)
	tail := G500.EdgesSlice(10, 9, 37, 100)
	if len(head)+len(tail) != len(whole) {
		t.Fatalf("lengths %d+%d != %d", len(head), len(tail), len(whole))
	}
	for i, e := range whole {
		var got graph.Edge
		if i < 37 {
			got = head[i]
		} else {
			got = tail[i-37]
		}
		if got != e {
			t.Fatalf("slice composition differs at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := G500.EdgesSlice(10, 1, 0, 50)
	b := G500.EdgesSlice(10, 2, 0, 50)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 produced identical streams")
	}
}

// wellFormed checks g as a simple undirected graph: its arrays fit together
// and rebuilding it from its own edges gives it back, so every row is sorted,
// loop-free and mirrored.
func wellFormed(g *graph.Graph) error {
	if err := graph.CheckShape(g); err != nil {
		return err
	}
	ref, err := graph.FromEdges(g.N, g.Edges())
	if err != nil {
		return err
	}
	if !slices.Equal(ref.Xadj, g.Xadj) || !slices.Equal(ref.Adj, g.Adj) {
		return errors.New("graph differs from its rebuild from its own edges")
	}
	return nil
}

func TestGenerateValidSimpleGraph(t *testing.T) {
	g, err := G500.Generate(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := wellFormed(g); err != nil {
		t.Fatal(err)
	}
	if g.N != 1024 {
		t.Fatalf("n=%d", g.N)
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	// Duplicates must have been removed: fewer edges than raw samples.
	if g.NumEdges() >= 8*1024 {
		t.Fatalf("edge count %d not deduplicated", g.NumEdges())
	}
}

func TestSkewedParamsProduceSkew(t *testing.T) {
	skewed, err := G500.Generate(12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Friendsterish.Generate(12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.MaxDegree() < 2*uniform.MaxDegree() {
		t.Errorf("expected skew: g500 max degree %d vs uniform %d",
			skewed.MaxDegree(), uniform.MaxDegree())
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(256, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := wellFormed(g); err != nil {
		t.Fatal(err)
	}
	if g.N != 256 {
		t.Fatalf("n=%d", g.N)
	}
}

func TestGeneratorsRejectBadSizes(t *testing.T) {
	// Each would panic: a negative make, or a sample modulo zero vertices
	// inside a fill goroutine, where the caller cannot recover it.
	for _, scale := range []int{-1, 31} {
		if _, err := G500.Generate(scale, 16, 1); err == nil {
			t.Errorf("Generate(scale %d): no error", scale)
		}
	}
	if _, err := G500.Generate(4, -1, 1); err == nil {
		t.Error("Generate(edge factor -1): no error")
	}
	for _, c := range []struct {
		n int32
		m int64
	}{{0, 5}, {-1, 5}, {4, -1}} {
		if _, err := ErdosRenyi(c.n, c.m, 1); err == nil {
			t.Errorf("ErdosRenyi(%d, %d): no error", c.n, c.m)
		}
	}
	if g, err := ErdosRenyi(0, 0, 1); err != nil || g.N != 0 {
		t.Errorf("ErdosRenyi(0, 0) = %v, %v; want the empty graph", g, err)
	}
}

func TestERSliceCompose(t *testing.T) {
	whole := ERSlice(100, 3, 0, 60)
	head := ERSlice(100, 3, 0, 20)
	tail := ERSlice(100, 3, 20, 60)
	for i, e := range whole {
		var got graph.Edge
		if i < 20 {
			got = head[i]
		} else {
			got = tail[i-20]
		}
		if got != e {
			t.Fatalf("ER slice composition differs at %d", i)
		}
	}
}

func TestPropertyEdgePure(t *testing.T) {
	// Edge must be a pure function of (scale, seed, i) and in range.
	f := func(seed uint64, idx uint16) bool {
		i := int64(idx)
		e1 := Twitterish.Edge(11, seed, i)
		e2 := Twitterish.Edge(11, seed, i)
		n := int32(1) << 11
		return e1 == e2 && e1.U >= 0 && e1.U < n && e1.V >= 0 && e1.V < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUniformish(t *testing.T) {
	// Crude sanity: mean of many uniforms near 0.5.
	r := newRNG(1, 2)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.float64()
		if v < 0 || v >= 1 {
			t.Fatalf("uniform out of range: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

// graphHash is a SHA-256 of a graph's N, Xadj and Adj.
func graphHash(g *graph.Graph) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, g.N)
	binary.Write(h, binary.LittleEndian, g.Xadj)
	binary.Write(h, binary.LittleEndian, g.Adj)
	return hex.EncodeToString(h.Sum(nil))
}

// The G500 s12 (edge factor 16, seed 1) and ER 4096×65536 (seed 1) graphs as
// the sequential sort-based builder produced them.
const (
	g500S12Hash = "675d228566762c96fd767a232e30a1617b94d4595e7f9944997315b79aecb659"
	er4096Hash  = "fab871a373b10668a9ac353cb07203abcdcf48d925ab281b7a86fbaed767558e"
)

func TestParallelGenerationIndependentOfGOMAXPROCS(t *testing.T) {
	const scale, ef = 12, 16
	n, m := int32(1)<<scale, int64(ef)<<scale
	rmatRef, err := graph.FromEdges(n, G500.EdgesSlice(scale, 1, 0, m))
	if err != nil {
		t.Fatal(err)
	}
	erRef, err := graph.FromEdges(n, ERSlice(int64(n), 1, 0, m))
	if err != nil {
		t.Fatal(err)
	}
	if h := graphHash(rmatRef); h != g500S12Hash {
		t.Fatalf("G500 s12 seed 1 hashes to %s, want %s", h, g500S12Hash)
	}
	if h := graphHash(erRef); h != er4096Hash {
		t.Fatalf("ER 4096x65536 seed 1 hashes to %s, want %s", h, er4096Hash)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		g, err := G500.Generate(scale, ef, 1)
		if err != nil {
			t.Fatal(err)
		}
		if h := graphHash(g); h != g500S12Hash {
			t.Errorf("GOMAXPROCS=%d: Generate hashes to %s, want %s", procs, h, g500S12Hash)
		}
		g, err = ErdosRenyi(n, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if h := graphHash(g); h != er4096Hash {
			t.Errorf("GOMAXPROCS=%d: ErdosRenyi hashes to %s, want %s", procs, h, er4096Hash)
		}
	}
}

// BenchmarkGenerate generates the RMAT s16 graph (edge factor 16, seed 1):
// the edge list on GOMAXPROCS goroutines, then the builder.
func BenchmarkGenerate(b *testing.B) {
	const scale, ef = 16, 16
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		if _, err := G500.Generate(scale, ef, 1); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(ef<<scale)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/edge")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/edge")
}
