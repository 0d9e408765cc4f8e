package tc2d

import (
	"math"
	"sync"
	"testing"
)

// Resident-cluster tests: build once, query many. The second and later
// cluster.Count calls must perform no redistribute/relabel/block-build work
// while returning counts identical to the one-shot pipeline and the
// sequential oracle.

func testClusterGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateRMAT(G500, 10, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClusterReuseSkipsPreprocessing(t *testing.T) {
	g := testClusterGraph(t)
	want := CountSequential(g)
	oneShot, err := Count(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Triangles != want {
		t.Fatalf("one-shot Count: %d, sequential %d", oneShot.Triangles, want)
	}

	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The resident per-rank state is built exactly once; queries must not
	// replace it.
	eng := cl.eng.(*localEngine)
	resident := func(rank int) any {
		pr, err := eng.store.get(rank)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	stateBefore := make([]any, cl.ranks)
	for i := range stateBefore {
		stateBefore[i] = resident(i)
	}

	var results []*Result
	for q := 0; q < 3; q++ {
		res, err := cl.Count(QueryOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		results = append(results, res)
	}
	for q, res := range results {
		if res.Triangles != want {
			t.Errorf("query %d: %d triangles, want %d", q, res.Triangles, want)
		}
		if res.PreOps != 0 {
			t.Errorf("query %d: PreOps=%d, want 0 — query repeated preprocessing work", q, res.PreOps)
		}
		if res.PreprocessTime != 0 || res.CountTime != 0 || res.TotalTime != 0 || res.CommFracPre != 0 || res.CommFracCount != 0 {
			t.Errorf("query %d: modeled times %v/%v/%v, comm fractions %v/%v, want all 0 on a resident count",
				q, res.PreprocessTime, res.CountTime, res.TotalTime, res.CommFracPre, res.CommFracCount)
		}
	}
	for i := range stateBefore {
		if stateBefore[i] != resident(i) {
			t.Errorf("rank %d: prepared state was rebuilt between queries", i)
		}
	}

	info := cl.Info()
	if info.Queries != 3 {
		t.Errorf("Queries=%d, want 3", info.Queries)
	}
	if info.PreOps != oneShot.PreOps {
		t.Errorf("cluster PreOps=%d, one-shot %d — the one-time build should match", info.PreOps, oneShot.PreOps)
	}
	if info.N != oneShot.N || info.M != oneShot.M {
		t.Errorf("Info N=%d M=%d, one-shot N=%d M=%d", info.N, info.M, oneShot.N, oneShot.M)
	}
	// Prepare + 3 queries = 4 epochs on the resident world.
	snap := cl.Metrics().Snapshot()
	if e := snap[`tc_mpi_epochs_total{kind="read"}`] + snap[`tc_mpi_epochs_total{kind="write"}`]; e != 4 {
		t.Errorf("world ran %v epochs, want 4 (1 prepare + 3 queries)", e)
	}
}

func TestClusterSUMMARanks(t *testing.T) {
	// Non-square rank count → SUMMA schedule on the resident cluster.
	g := testClusterGraph(t)
	want := CountSequential(g)
	cl, err := NewCluster(g, Options{Ranks: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for q := 0; q < 2; q++ {
		res, err := cl.Count(QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want {
			t.Errorf("query %d: %d triangles, want %d", q, res.Triangles, want)
		}
		if res.PreOps != 0 {
			t.Errorf("query %d: PreOps=%d, want 0", q, res.PreOps)
		}
	}
}

func TestClusterConcurrentQueries(t *testing.T) {
	g := testClusterGraph(t)
	want := CountSequential(g)
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	counts := make([]int64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.Count(QueryOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			counts[i] = res.Triangles
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if counts[i] != want {
			t.Errorf("caller %d: %d triangles, want %d", i, counts[i], want)
		}
	}
	if q := cl.Info().Queries; q != callers {
		t.Errorf("Queries=%d, want %d", q, callers)
	}
}

func TestClusterInfoAccumulatesMapTasks(t *testing.T) {
	g := testClusterGraph(t)
	want := CountSequential(g)
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mapTasks int64
	for i := 0; i < 3; i++ {
		res, err := cl.Count(QueryOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Triangles != want {
			t.Errorf("query %d: %d triangles, want %d", i, res.Triangles, want)
		}
		mapTasks += res.MapTasks
	}
	// Info accumulates the intersected pairs of every completed epoch.
	if got := cl.Info().MapTasks; got != mapTasks {
		t.Errorf("Info.MapTasks=%d, want %d accumulated over the queries", got, mapTasks)
	}
}

func TestClusterTransitivity(t *testing.T) {
	g := testClusterGraph(t)
	want := Transitivity(g)
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.Transitivity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cluster transitivity %v, sequential %v", got, want)
	}
	// Transitivity with no prior query runs one implicitly.
	if q := cl.Info().Queries; q != 1 {
		t.Errorf("Queries=%d after Transitivity, want 1", q)
	}
}

func TestClusterRMAT(t *testing.T) {
	res, err := CountRMAT(G500, 10, 8, 21, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterRMAT(G500, 10, 8, 21, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != res.Triangles {
		t.Errorf("cluster RMAT count %d, one-shot %d", got.Triangles, res.Triangles)
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	g := testClusterGraph(t)
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Count(QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cl.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := cl.Count(QueryOptions{}); err != ErrClosed {
		t.Errorf("Count after Close: %v, want ErrClosed", err)
	}
	if _, err := cl.Transitivity(); err != ErrClosed {
		t.Errorf("Transitivity after Close: %v, want ErrClosed", err)
	}
}

func TestClusterInvalidRanks(t *testing.T) {
	g := testClusterGraph(t)
	if _, err := NewCluster(g, Options{Ranks: -1}); err == nil {
		t.Error("negative ranks should fail")
	}
	if _, err := NewCluster(nil, Options{Ranks: 4}); err == nil {
		t.Error("nil graph should fail")
	}
}
