package core

import (
	"testing"
	"testing/quick"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

func countSUMMA(t *testing.T, g *graph.Graph, p int, opt Options) *Result {
	t.Helper()
	results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		qr, qc := mpi.FactorGrid(c.Size())
		return CountGrid(c, in, qr, qc, true, opt)
	})
	if err != nil {
		t.Fatalf("summa p=%d: %v", p, err)
	}
	return results[0].(*Result)
}

func countSUMMAGrid(t *testing.T, g *graph.Graph, qr, qc int, opt Options) *Result {
	t.Helper()
	results, err := mpi.Run(qr*qc, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		return CountGrid(c, in, qr, qc, true, opt)
	})
	if err != nil {
		t.Fatalf("summa %dx%d: %v", qr, qc, err)
	}
	return results[0].(*Result)
}

func TestFactorGrid(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 7: {1, 7},
		12: {3, 4}, 16: {4, 4}, 18: {3, 6}, 30: {5, 6}, 169: {13, 13},
	}
	for p, want := range cases {
		qr, qc := mpi.FactorGrid(p)
		if qr != want[0] || qc != want[1] {
			t.Errorf("FactorGrid(%d)=(%d,%d) want %v", p, qr, qc, want)
		}
	}
}

func TestLCM(t *testing.T) {
	cases := [][3]int{{2, 3, 6}, {4, 4, 4}, {2, 4, 4}, {3, 6, 6}, {5, 7, 35}, {1, 9, 9}}
	for _, c := range cases {
		if got := lcm(c[0], c[1]); got != c[2] {
			t.Errorf("lcm(%d,%d)=%d want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestSUMMAMatchesSequentialRectGrids(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 10, 8, 42)
	want := seqtc.Count(g)
	for _, p := range []int{1, 2, 3, 6, 8, 12} {
		res := countSUMMA(t, g, p, Options{})
		if res.Triangles != want {
			t.Errorf("p=%d: %d want %d", p, res.Triangles, want)
		}
	}
}

func TestSUMMAExplicitGridShapes(t *testing.T) {
	g := mustRMAT(t, rmat.Twitterish, 9, 8, 5)
	want := seqtc.Count(g)
	for _, shape := range [][2]int{{1, 4}, {4, 1}, {2, 2}, {2, 6}, {3, 4}, {4, 3}} {
		res := countSUMMAGrid(t, g, shape[0], shape[1], Options{})
		if res.Triangles != want {
			t.Errorf("%dx%d: %d want %d", shape[0], shape[1], res.Triangles, want)
		}
	}
}

func TestSUMMAAgreesWithCannonOnSquare(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 10, 8, 9)
	cannon := countVia(t, g, 9, Options{})
	summa := countSUMMA(t, g, 9, Options{})
	if cannon.Triangles != summa.Triangles {
		t.Errorf("cannon %d vs summa %d", cannon.Triangles, summa.Triangles)
	}
	if cannon.M != summa.M {
		t.Errorf("edge counts differ")
	}
}

func TestSUMMAOptionToggles(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 3)
	want := seqtc.Count(g)
	for _, opt := range []Options{
		{NoDoublySparse: true},
		{NoDirectHash: true},
		{NoEarlyBreak: true},
		{Enumeration: EnumIJK},
	} {
		res := countSUMMA(t, g, 6, opt)
		if res.Triangles != want {
			t.Errorf("%+v: %d want %d", opt, res.Triangles, want)
		}
	}
}

func TestSUMMAPerShiftCount(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 3)
	res := countSUMMAGrid(t, g, 2, 3, Options{TrackPerShift: true})
	if len(res.LocalPerShift) != 6 { // lcm(2,3)
		t.Errorf("%d shifts, want 6", len(res.LocalPerShift))
	}
}

func TestSUMMAPrimeWorldSize(t *testing.T) {
	// Prime p degenerates to a 1×p grid and must still be correct.
	g := mustRMAT(t, rmat.G500, 9, 8, 13)
	want := seqtc.Count(g)
	res := countSUMMA(t, g, 7, Options{})
	if res.Triangles != want {
		t.Errorf("p=7: %d want %d", res.Triangles, want)
	}
}

func TestSUMMAPropertyRandomGraphs(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		g, err := rmat.ErdosRenyi(150, int64(mRaw)%1500+100, seed)
		if err != nil {
			return false
		}
		want := seqtc.Count(g)
		res, err := mpi.Run(6, testCfg(), func(c *mpi.Comm) (any, error) {
			in, err := dgraph.ScatterInput{Graph: g}.Build(c)
			if err != nil {
				return nil, err
			}
			qr, qc := mpi.FactorGrid(c.Size())
			return CountGrid(c, in, qr, qc, true, Options{})
		})
		if err != nil {
			t.Logf("summa: %v", err)
			return false
		}
		return res[0].(*Result).Triangles == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSUMMABadGrid(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 1)
	_, err := mpi.Run(6, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		return CountGrid(c, in, 2, 2, true, Options{}) // 2*2 != 6
	})
	if err == nil {
		t.Fatal("expected grid shape error")
	}
}
