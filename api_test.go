package tc2d

import (
	"math"
	"strings"
	"testing"
)

func k4(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCountQuickstart(t *testing.T) {
	g := k4(t)
	for _, p := range []int{0, 1, 4} { // 0 defaults to 1
		res, err := Count(g, Options{Ranks: p})
		if err != nil {
			t.Fatalf("Ranks=%d: %v", p, err)
		}
		if res.Triangles != 4 {
			t.Errorf("Ranks=%d: %d triangles", p, res.Triangles)
		}
	}
}

func TestCountNonSquareUsesSUMMA(t *testing.T) {
	// Non-square rank counts are served by the SUMMA schedule.
	for _, p := range []int{2, 3, 6, 12} {
		res, err := Count(k4(t), Options{Ranks: p})
		if err != nil {
			t.Fatalf("Ranks=%d: %v", p, err)
		}
		if res.Triangles != 4 {
			t.Errorf("Ranks=%d: %d triangles", p, res.Triangles)
		}
	}
	if _, err := Count(k4(t), Options{Ranks: -1}); err == nil {
		t.Fatal("expected error for negative ranks")
	}
}

func TestCountMatchesSequential(t *testing.T) {
	g, err := GenerateRMAT(G500, 10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := CountSequential(g)
	res, err := Count(g, Options{Ranks: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Errorf("distributed %d, sequential %d", res.Triangles, want)
	}
}

func TestCountRMATGeneratesOnRanks(t *testing.T) {
	res, err := CountRMAT(G500, 9, 8, 5, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateRMAT(G500, 9, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := CountSequential(g); res.Triangles != want {
		t.Errorf("CountRMAT %d, sequential %d", res.Triangles, want)
	}
}

func TestTransitivityCompleteGraph(t *testing.T) {
	// In K4 every wedge closes: transitivity must be 1.
	if got := Transitivity(k4(t)); math.Abs(got-1) > 1e-12 {
		t.Errorf("transitivity %v", got)
	}
	// A path has no triangles.
	path, _ := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if got := Transitivity(path); got != 0 {
		t.Errorf("path transitivity %v", got)
	}
	// Empty graph: no wedges at all.
	empty, _ := NewGraph(3, nil)
	if got := Transitivity(empty); got != 0 {
		t.Errorf("empty transitivity %v", got)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	g := k4(t)
	per, avg := ClusteringCoefficients(g)
	for v, cc := range per {
		if math.Abs(cc-1) > 1e-12 {
			t.Errorf("cc[%d]=%v", v, cc)
		}
	}
	if math.Abs(avg-1) > 1e-12 {
		t.Errorf("avg=%v", avg)
	}
	// A triangle with a pendant vertex: pendant has cc 0 (degree 1,
	// excluded); triangle corners have cc 1 except the attachment vertex.
	g2, _ := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	per2, _ := ClusteringCoefficients(g2)
	if per2[3] != 0 {
		t.Errorf("pendant cc=%v", per2[3])
	}
	if math.Abs(per2[2]-1.0/3) > 1e-12 { // degree 3, 1 triangle, 3 wedges
		t.Errorf("attachment cc=%v", per2[2])
	}
}

func TestEdgeSupportAPI(t *testing.T) {
	sup := EdgeSupport(k4(t))
	if len(sup) != 6 {
		t.Fatalf("%d edges", len(sup))
	}
	for e, s := range sup {
		if s != 2 {
			t.Errorf("edge %v support %d, want 2", e, s)
		}
	}
}

func TestReadWriteEdgeList(t *testing.T) {
	var sb strings.Builder
	if err := WriteEdgeList(&sb, k4(t)); err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeList(strings.NewReader(sb.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("M=%d", g.NumEdges())
	}
}
