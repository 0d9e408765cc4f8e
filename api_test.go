package tc2d

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tc2d/internal/aop"
	"tc2d/internal/dgraph"
	"tc2d/internal/havoq"
	"tc2d/internal/mpi"
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

// graphHash is the SHA-256 of g's row pointers and adjacency.
func graphHash(g *Graph) [sha256.Size]byte {
	h := sha256.New()
	h.Write(mpi.Int64sToBytes(g.Xadj))
	h.Write(mpi.Int32sAsBytes(g.Adj))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestCountLeavesGraphUntouched: the scatter lends every rank a read-only
// view of the caller's rows instead of a copy, so nothing downstream may
// write them — not a one-shot count on either schedule, not a cluster's
// build, writes and full rebuild, not a 1D baseline's degree relabeling.
func TestCountLeavesGraphUntouched(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 31)
	if err != nil {
		t.Fatal(err)
	}
	want := graphHash(g)
	check := func(after string) {
		t.Helper()
		if graphHash(g) != want {
			t.Fatalf("the caller's graph changed after %s", after)
		}
	}
	for _, p := range []int{4, 6} {
		if _, err := Count(g, Options{Ranks: p}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Count on %d ranks", p))
	}

	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(3))
	oracle := newEdgeOracle(g)
	for b := 0; b < 3; b++ {
		batch := randomBatch(rng, oracle, 40, 40)
		if _, err := cl.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		oracle.apply(batch)
	}
	cl.sched.gate.Lock()
	err = cl.rebuildFullLocked()
	cl.sched.gate.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := cl.Count(QueryOptions{}); err != nil || res.Triangles != CountSequential(oracle.graph(t)) {
		t.Fatalf("count after the rebuild: %v, %v", res, err)
	}
	check("a cluster's build, three update batches and a full rebuild")

	for name, count := range map[string]func(c *mpi.Comm, in *dgraph.Dist1D) error{
		"AOP": func(c *mpi.Comm, in *dgraph.Dist1D) error { _, err := aop.CountAOP(c, in); return err },
		"Havoq": func(c *mpi.Comm, in *dgraph.Dist1D) error {
			_, err := havoq.Count(c, in, havoq.Options{})
			return err
		},
	} {
		_, err := mpi.Run(4, Options{}.mpiConfig(), func(c *mpi.Comm) (any, error) {
			in, err := dgraph.ScatterInput{Graph: g}.Build(c)
			if err != nil {
				return nil, err
			}
			return nil, count(c, in)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name)
	}
}

// TestCountAllocationBudget keeps the one-shot path lean: Count on 4 ranks
// — the world, the scatter, the preprocessing and the count — may allocate
// at most 27 bytes per directed adjacency entry of an RMAT scale-12 graph,
// all ranks together. The scattered rows are the caller's, the cyclic
// step's received chunks are the 1D block the relabel rewrites in place,
// the 2D exchange ships local indices, one column header per group, and
// the 2D build writes straight into the blocks a rank keeps.
func TestCountAllocationBudget(t *testing.T) {
	const budget = 27 // bytes per directed adjacency entry
	g, err := GenerateRMAT(G500, 12, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	count := func() {
		if _, err := Count(g, Options{Ranks: 4}); err != nil {
			t.Fatal(err)
		}
	}
	count() // warm the runtime: goroutine stacks, pools
	// TotalAlloc is the whole process's: what other tests left running can
	// only add to it, so the least of a few counts is the count's own.
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		count()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perEntry := float64(least) / float64(len(g.Adj))
	t.Logf("Count allocated %.1f B per directed adjacency entry (%d entries)", perEntry, len(g.Adj))
	if perEntry > budget {
		t.Errorf("Count allocated %.1f B per directed adjacency entry, budget %d", perEntry, budget)
	}
}

// TestFirstWriteHeapBudget: the write path reads a row from the blocks the
// ranks already hold for counting, so the first write on a cluster leaves no
// copy of the graph behind. On 4 ranks over RMAT scale 15 (about 1M directed
// entries) the live heap may grow by at most 0.5 MB across one single-edge
// batch; a row mirror in global labels would add about 3.7 MB.
func TestFirstWriteHeapBudget(t *testing.T) {
	const budget = 512 << 10
	g, err := GenerateRMAT(G500, 15, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Two collections: the first write runs the base count, whose pooled
	// kernel scratch outlives one collection in the pool's victim cache.
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	before := heap()
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}}); err != nil {
		t.Fatal(err)
	}
	grew := heap() - before
	t.Logf("the first write grew the live heap by %d B", grew)
	if grew > budget {
		t.Errorf("the first write grew the live heap by %d B, budget %d", grew, budget)
	}
	runtime.KeepAlive(g)
}
