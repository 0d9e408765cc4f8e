package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func k4(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []Edge{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := k4(t)
	if g.N != 4 || g.NumEdges() != 6 {
		t.Fatalf("N=%d M=%d", g.N, g.NumEdges())
	}
	if err := wellFormed(g); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 4; v++ {
		if g.Degree(v) != 3 {
			t.Errorf("deg(%d)=%d", v, g.Degree(v))
		}
	}
}

func TestFromEdgesDedupAndLoops(t *testing.T) {
	g, err := FromEdges(3, []Edge{
		{0, 1}, {1, 0}, {0, 1}, // duplicates both directions
		{2, 2}, // self loop
		{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("M=%d want 2", g.NumEdges())
	}
	if err := wellFormed(g); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("expected negative-id error")
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g, err := FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("M=%d", g.NumEdges())
	}
	if err := wellFormed(g); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsAboveBelow(t *testing.T) {
	g := k4(t)
	above := g.NeighborsAbove(1)
	if len(above) != 2 || above[0] != 2 || above[1] != 3 {
		t.Errorf("above(1)=%v", above)
	}
	below := g.NeighborsBelow(2)
	if len(below) != 2 || below[0] != 0 || below[1] != 1 {
		t.Errorf("below(2)=%v", below)
	}
	// Above + below must partition the full adjacency.
	for v := int32(0); v < g.N; v++ {
		if len(g.NeighborsAbove(v))+len(g.NeighborsBelow(v)) != int(g.Degree(v)) {
			t.Errorf("partition broken at %d", v)
		}
	}
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int32) bool {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

func TestHasEdge(t *testing.T) {
	g, _ := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	cases := []struct {
		u, v int32
		want bool
	}{{0, 1, true}, {1, 0, true}, {2, 3, true}, {0, 2, false}, {1, 3, false}}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d)=%v", c.u, c.v, got)
		}
	}
}

func TestEdgesRoundtrip(t *testing.T) {
	g := k4(t)
	edges := g.Edges()
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("%d edges", len(edges))
	}
	g2, err := FromEdges(g.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("edges roundtrip changed the graph")
	}
}

func sameGraph(a, b *Graph) bool {
	if a.N != b.N || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Xadj {
		if a.Xadj[i] != b.Xadj[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	return true
}

func TestPermuteIdentityAndReverse(t *testing.T) {
	g := k4(t)
	id := []int32{0, 1, 2, 3}
	g2, err := g.Permute(id)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("identity permutation changed graph")
	}
	rev := []int32{3, 2, 1, 0}
	g3, err := g.Permute(rev)
	if err != nil {
		t.Fatal(err)
	}
	if err := wellFormed(g3); err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
}

func TestPermuteRejectsNonBijection(t *testing.T) {
	g := k4(t)
	if _, err := g.Permute([]int32{0, 0, 1, 2}); err == nil {
		t.Fatal("expected bijection error")
	}
	if _, err := g.Permute([]int32{0, 1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := g.Permute([]int32{0, 1, 2, 4}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestDegreeOrder(t *testing.T) {
	// Star graph: center has max degree, must be relabeled last.
	var edges []Edge
	for i := int32(1); i <= 5; i++ {
		edges = append(edges, Edge{0, i})
	}
	edges = append(edges, Edge{1, 2}) // vertices 1,2 get degree 2
	g, _ := FromEdges(6, edges)
	og, perm := g.DegreeOrder()
	if err := wellFormed(og); err != nil {
		t.Fatal(err)
	}
	if perm[0] != 5 {
		t.Errorf("center relabeled to %d, want 5", perm[0])
	}
	// Degrees must be non-decreasing in the new labeling.
	for v := int32(1); v < og.N; v++ {
		if og.Degree(v) < og.Degree(v-1) {
			t.Errorf("degree order violated at %d", v)
		}
	}
}

func TestDegreeOrderDeterministicTies(t *testing.T) {
	g := k4(t) // all degrees equal: permutation must be identity
	perm := g.DegreeOrderPerm()
	for v, p := range perm {
		if int32(v) != p {
			t.Errorf("tie-break not by id: perm[%d]=%d", v, p)
		}
	}
}

func randomGraph(r *rand.Rand, n int32, m int) *Graph {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: int32(r.Intn(int(n))), V: int32(r.Intn(int(n)))}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// wellFormed checks g as a simple undirected graph: its arrays fit together
// and rebuilding it from its own edges gives it back, so every row is sorted,
// loop-free and mirrored.
func wellFormed(g *Graph) error {
	if err := CheckShape(g); err != nil {
		return err
	}
	ref, err := FromEdges(g.N, g.Edges())
	if err != nil {
		return err
	}
	if !slices.Equal(ref.Xadj, g.Xadj) || !slices.Equal(ref.Adj, g.Adj) {
		return errors.New("graph differs from its rebuild from its own edges")
	}
	return nil
}

func TestPropertyBuildInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int32(nRaw)%100 + 2
		g := randomGraph(r, n, int(mRaw)%500)
		return wellFormed(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsMalformed: arrays that do not fit together are an
// error from CheckShape, the check shipped graphs pass, never a panic.
func TestValidateRejectsMalformed(t *testing.T) {
	for _, g := range []*Graph{
		{N: -1},
		{N: 3},
		{N: 3, Xadj: []int64{0, 5, 5, 5}, Adj: []int32{1}},
		{N: 2, Xadj: []int64{0, 2, 1}, Adj: []int32{1}},
		{N: 2, Xadj: []int64{0, 1, 2}, Adj: []int32{1, 2}},
	} {
		if err := CheckShape(g); err == nil {
			t.Errorf("%+v: CheckShape accepted it", g)
		}
	}
}

func TestPropertyPermutePreservesTriangles(t *testing.T) {
	// Triangle census is invariant under relabeling; check via degree sum
	// and a brute-force count on small graphs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 30, 120)
		og, _ := g.DegreeOrder()
		return bruteTriangles(g) == bruteTriangles(og)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// bruteTriangles counts triangles in O(n^3); test-only oracle.
func bruteTriangles(g *Graph) int64 {
	var c int64
	for i := int32(0); i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if !g.HasEdge(i, j) {
				continue
			}
			for k := j + 1; k < g.N; k++ {
				if g.HasEdge(i, k) && g.HasEdge(j, k) {
					c++
				}
			}
		}
	}
	return c
}

func TestEdgeListIORoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(r, 60, 300)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, g.N)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("edge list roundtrip changed graph")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\n% another\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges() != 2 {
		t.Fatalf("N=%d M=%d", g.N, g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n"), 0); err == nil {
		t.Error("expected error for one-field line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n"), 0); err == nil {
		t.Error("expected error for non-numeric line")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 5\n"), 3); err == nil {
		t.Error("expected error for id beyond given n")
	}
}

func TestReadEdgeListRejectsMaxInt32ID(t *testing.T) {
	// Inferring n as max id + 1 would overflow int32.
	_, err := ReadEdgeList(strings.NewReader("0 2147483647\n"), 0)
	if err == nil || !strings.Contains(err.Error(), "2147483647") || !strings.Contains(err.Error(), "int32 limit") {
		t.Fatalf("err = %v, want one naming id 2147483647 and the int32 limit", err)
	}
	// With an explicit n it is an out-of-range id, as before.
	if _, err := ReadEdgeList(strings.NewReader("0 2147483647\n"), 5); err == nil || !strings.Contains(err.Error(), ">= n=5") {
		t.Fatalf("explicit n: err = %v, want the out-of-range error", err)
	}
}

func TestStats(t *testing.T) {
	g := k4(t)
	if g.MaxDegree() != 3 {
		t.Errorf("max degree %d", g.MaxDegree())
	}
}

func TestNeighborsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 50, 400)
	for v := int32(0); v < g.N; v++ {
		row := g.Neighbors(v)
		if !sort.SliceIsSorted(row, func(i, j int) bool { return row[i] < row[j] }) {
			t.Fatalf("neighbors of %d unsorted", v)
		}
	}
}
