package graph_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tc2d/internal/graph"
	"tc2d/internal/rmat"
)

// refFromEdges is the comparison-sort builder FromEdges replaced, kept as
// the reference: scatter both directions of every edge into its source's
// row, sort and deduplicate each row, copy the result to an exact size.
func refFromEdges(n int32, edges []graph.Edge) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	xadj := make([]int64, n+1)
	for _, e := range edges {
		if e.U != e.V {
			xadj[e.U+1]++
			xadj[e.V+1]++
		}
	}
	for v := int32(0); v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	adj := make([]int32, xadj[n])
	next := slices.Clone(xadj[:n])
	for _, e := range edges {
		if e.U != e.V {
			adj[next[e.U]] = e.V
			next[e.U]++
			adj[next[e.V]] = e.U
			next[e.V]++
		}
	}
	out := &graph.Graph{N: n, Xadj: make([]int64, n+1)}
	var kept []int32
	for v := int32(0); v < n; v++ {
		row := adj[xadj[v]:xadj[v+1]]
		slices.Sort(row)
		kept = append(kept, slices.Compact(row)...)
		out.Xadj[v+1] = int64(len(kept))
	}
	out.Adj = append([]int32{}, kept...)
	return out, nil
}

// refPermute relabels by a comparison sort of every new row.
func refPermute(g *graph.Graph, perm []int32) *graph.Graph {
	rows := make([][]int32, g.N)
	for v := int32(0); v < g.N; v++ {
		row := make([]int32, 0, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			row = append(row, perm[u])
		}
		slices.Sort(row)
		rows[perm[v]] = row
	}
	out := &graph.Graph{N: g.N, Xadj: make([]int64, g.N+1), Adj: []int32{}}
	for t, row := range rows {
		out.Adj = append(out.Adj, row...)
		out.Xadj[t+1] = int64(len(out.Adj))
	}
	return out
}

// checkSame fails unless got is exactly want, row pointers and entries, and
// its Adj is exactly sized.
func checkSame(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.Xadj, want.Xadj) || !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("graph differs from the reference: N %d/%d, Xadj %v/%v, Adj %v/%v",
			got.N, want.N, got.Xadj, want.Xadj, got.Adj, want.Adj)
	}
	if len(got.Adj) != cap(got.Adj) {
		t.Fatalf("len(Adj) = %d, cap(Adj) = %d", len(got.Adj), cap(got.Adj))
	}
}

// checkFromEdges holds FromEdges to the reference: the same graph, or the
// same error.
func checkFromEdges(t *testing.T, n int32, edges []graph.Edge) {
	t.Helper()
	want, wantErr := refFromEdges(n, edges)
	got, err := graph.FromEdges(n, edges)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("FromEdges(%d, %v): error %v, reference %v", n, edges, err, wantErr)
	}
	if err == nil {
		checkSame(t, got, want)
	}
}

// fuzzEdges decodes a fuzz input: two bytes give n ≤ 2^12, then every four
// bytes an edge whose endpoints land in [-1, n+1], so a small n draws
// out-of-range ids, duplicates and self loops often.
func fuzzEdges(data []byte) (int32, []graph.Edge) {
	if len(data) < 2 {
		return 0, nil
	}
	n := int32(binary.LittleEndian.Uint16(data) % (1<<12 + 1))
	end := func(b []byte) int32 { return int32(binary.LittleEndian.Uint16(b)%uint16(n+3)) - 1 }
	var edges []graph.Edge
	for b := data[2:]; len(b) >= 4; b = b[4:] {
		edges = append(edges, graph.Edge{U: end(b), V: end(b[2:])})
	}
	return n, edges
}

// fuzzInput encodes n and edges (endpoints in [-1, n+1]) as fuzzEdges reads them.
func fuzzInput(n uint16, edges ...graph.Edge) []byte {
	b := binary.LittleEndian.AppendUint16(nil, n)
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint16(b, uint16(e.U+1))
		b = binary.LittleEndian.AppendUint16(b, uint16(e.V+1))
	}
	return b
}

func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzInput(0))                         // n = 0, no edges
	f.Add(fuzzInput(0, graph.Edge{U: 0, V: 0})) // n = 0, out of range
	f.Add(fuzzInput(5, graph.Edge{U: 3, V: 3})) // only a self loop
	f.Add(fuzzInput(4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 0}, graph.Edge{U: 0, V: 1},
		graph.Edge{U: 2, V: 2}, graph.Edge{U: 1, V: 2})) // duplicates, reverse duplicate, self loop, isolated 3
	f.Add(fuzzInput(3, graph.Edge{U: 0, V: 1}, graph.Edge{U: -1, V: 2})) // negative id
	f.Add(fuzzInput(3, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3}))  // id = n
	f.Add(fuzzInput(1<<12, graph.Edge{U: 4095, V: 0}, graph.Edge{U: 0, V: 4095}, graph.Edge{U: 17, V: 4095}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := fuzzEdges(data)
		checkFromEdges(t, n, edges)
	})
}

func TestFromEdgesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := int32(r.Intn(200))
		// A vertex range narrower than n leaves isolated vertices at the top
		// and makes duplicates common.
		span := 1 + r.Intn(int(n)+1)
		edges := make([]graph.Edge, r.Intn(4*span+1))
		for i := range edges {
			edges[i] = graph.Edge{U: int32(r.Intn(span)), V: int32(r.Intn(span))}
		}
		if n == 0 {
			edges = nil
		}
		checkFromEdges(t, n, edges)
	}
	checkFromEdges(t, -1, nil)
	edges := rmat.G500.EdgesSlice(12, 1, 0, 16<<12)
	checkFromEdges(t, 1<<12, edges)
}

func TestPermuteMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := int32(1 + r.Intn(300))
		edges := make([]graph.Edge, r.Intn(8*int(n)))
		for i := range edges {
			edges[i] = graph.Edge{U: int32(r.Intn(int(n))), V: int32(r.Intn(int(n)))}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		perm := make([]int32, n)
		for i, p := range r.Perm(int(n)) {
			perm[i] = int32(p)
		}
		got, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, got, refPermute(g, perm))
		ordered, dperm := g.DegreeOrder()
		checkSame(t, ordered, refPermute(g, dperm))
	}
}

// fromEdgesBytesPerEdge is the most FromEdges may allocate per input edge on
// an RMAT s14 edge list (edge factor 16, seed 1). The builder measures 15.7:
// the row pointers, fill cursors and bucket marks (20 B per vertex, 1.25 per
// edge), the bucket array (8 B per non-loop edge) and the exactly sized Adj
// (8 B per kept edge, 6.3 per input edge here).
const fromEdgesBytesPerEdge = 17

func TestFromEdgesAllocationBudget(t *testing.T) {
	edges := rmat.G500.EdgesSlice(14, 1, 0, 16<<14)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := graph.FromEdges(1<<14, edges)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(edges))
	t.Logf("%.2f B per input edge (%d edges in, %d kept)", perEdge, len(edges), g.NumEdges())
	if perEdge > fromEdgesBytesPerEdge {
		t.Fatalf("FromEdges allocated %.2f B per input edge, budget %d", perEdge, fromEdgesBytesPerEdge)
	}
}

// BenchmarkFromEdges builds the RMAT s16 graph (edge factor 16, seed 1) from
// its generated edge list.
func BenchmarkFromEdges(b *testing.B) {
	edges := rmat.G500.EdgesSlice(16, 1, 0, 16<<16)
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		if _, err := graph.FromEdges(1<<16, edges); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(len(edges))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/edge")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/edge")
}
