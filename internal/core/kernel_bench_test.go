package core

import (
	"math/rand"
	"runtime"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// BenchmarkKernelStep measures the kernel alone: one compute step of one
// rank of a 4-rank Cannon grid — rank 0's task block against its own U
// block in both roles, the operands it holds at step 0 (stepZero) — on a
// skewed (RMAT scale 14) and a flat (Erdős–Rényi, same size) graph, and on
// the skewed graph with 37 isolated vertices more (a key range that ends
// mid-word) and after one vertex arrival (a key above the hub window). ns/probe is the cost of one
// bitmap lookup with everything around it amortised in; tasks/op against
// probes/op splits the step into per-task and per-probe work, and hub-share
// is the fraction of the probes the hub masks answered 64 keys at a time. A
// step must not allocate (TestKernelStepAllocatesNothing).
func BenchmarkKernelStep(b *testing.B) {
	er, err := rmat.ErdosRenyi(1<<14, 16<<14, 1)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := rmat.G500.Generate(14, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	states := append(skewedStates(b, rm), kernelState{"er", rankZero(b, er)})
	for _, st := range states {
		b.Run(st.name, func(b *testing.B) {
			blk, l := stepZero(st.prep)
			kn := st.prep.kernel(Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kn.run(&blk.task, blk.taskRows, &blk.u[0], l)
			}
			b.StopTimer()
			kc := kn.kc
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(kc.probes), "ns/probe")
			b.ReportMetric(float64(kc.probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(kc.triangles)/float64(b.N), "hits/op")
			b.ReportMetric(float64(kc.mapTasks)/float64(b.N), "tasks/op")
			b.ReportMetric(float64(kn.hubProbes)/float64(kc.probes), "hub-share")
		})
	}
}

// kernelState is rank 0's resident state of a kernel input.
type kernelState struct {
	name string
	prep *Prepared
}

// skewedStates prepares the skewed graph g three ways: as it is ("rmat");
// with 37 isolated vertices more, so the key range ends mid-word and the
// hub window straddles a word boundary ("rmat+37"); and as built, then
// grown by one vertex, whose key lies above the window ("rmat-grown").
func skewedStates(tb testing.TB, g *graph.Graph) []kernelState {
	wide, err := graph.FromEdges(g.N+37, g.Edges())
	if err != nil {
		tb.Fatal(err)
	}
	grown := rankZero(tb, g)
	if err := grown.GrowTo(int64(g.N) + 1); err != nil {
		tb.Fatal(err)
	}
	return []kernelState{{"rmat", rankZero(tb, g)}, {"rmat+37", rankZero(tb, wide)}, {"rmat-grown", grown}}
}

// stepZero returns the blocks of rank 0 of a Cannon grid and its L operand
// at step 0: L_{0,0}, which is its own U block.
func stepZero(p *Prepared) (*blocks, *cscBlock) {
	return p.blk, (*cscBlock)(&p.blk.u[0])
}

// rankZero prepares g on a 4-rank Cannon grid and returns rank 0's state.
func rankZero(tb testing.TB, g *graph.Graph) *Prepared {
	tb.Helper()
	var prep *Prepared
	_, err := mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		p, err := prepareOn(c, g, 0, 0, EnumJIK)
		if c.Rank() == 0 {
			prep = p
		}
		return nil, err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return prep
}

// TestKernelStepAllocatesNothing holds BenchmarkKernelStep to its promise:
// once a kernel has run one step, a compute step — the hub masks included —
// allocates nothing.
func TestKernelStepAllocatesNothing(t *testing.T) {
	prep := rankZero(t, mustRMAT(t, rmat.G500, 12, 16, 1))
	blk, l := stepZero(prep)
	kn := prep.kernel(Options{})
	step := func() { kn.run(&blk.task, blk.taskRows, &blk.u[0], l) }
	step()
	if kn.hubProbes == 0 {
		t.Fatal("the step answered no probe from the hub masks")
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a compute step allocated %v times", allocs)
	}
}

// TestHubWindowStaysOnTheHubs checks that the hub window follows the degree
// order, not the bitmap's words: on a key range that ends mid-word, and
// after a vertex arrival puts a key above the window, the hub masks answer
// as large a share of a skewed graph's probes as on the graph as built. The
// arrival changes nothing else: the step's counters are the built state's.
func TestHubWindowStaysOnTheHubs(t *testing.T) {
	states := skewedStates(t, mustRMAT(t, rmat.G500, 12, 16, 1))
	var built kernelCounters
	var builtShare float64
	for _, st := range states {
		blk, l := stepZero(st.prep)
		kn := st.prep.kernel(Options{})
		kn.run(&blk.task, blk.taskRows, &blk.u[0], l)
		kn.release()
		share := float64(kn.hubProbes) / float64(kn.kc.probes)
		t.Logf("%s: %+v, hub share %.3f", st.name, kn.kc, share)
		switch st.name {
		case "rmat":
			built, builtShare = kn.kc, share
			if share < 0.5 {
				t.Errorf("%s: the hub masks answered %.3f of the probes", st.name, share)
			}
		case "rmat-grown":
			if kn.kc != built || share != builtShare {
				t.Errorf("%s: %+v, hub share %.3f; as built %+v, %.3f", st.name, kn.kc, share, built, builtShare)
			}
		default:
			if share < 0.9*builtShare {
				t.Errorf("%s: hub share %.3f, against %.3f as built", st.name, share, builtShare)
			}
		}
	}
}

// scatterWorld opens a p-rank world and scatters g over it in a first epoch,
// so a later epoch can run Prepare alone.
func scatterWorld(tb testing.TB, g *graph.Graph, p int) (*mpi.World, []*dgraph.Dist1D) {
	tb.Helper()
	w := mpi.NewWorld(p, testCfg())
	ins := make([]*dgraph.Dist1D, p)
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		ins[c.Rank()] = in
		return nil, err
	})
	if err != nil {
		w.Close()
		tb.Fatal(err)
	}
	return w, ins
}

func prepareEpoch(tb testing.TB, w *mpi.World, ins []*dgraph.Dist1D) {
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		return Prepare(c, ins[c.Rank()], Options{})
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// routedWords runs the pipeline up to the all-to-all of the 2D build and
// returns the words it delivered, all ranks together: what the 2D exchange
// sends.
func routedWords(tb testing.TB, w *mpi.World, ins []*dgraph.Dist1D) int64 {
	words := make([]int64, len(ins))
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		var ops int64
		rl, err := degreeRelabel(c, cyclicRedistribute(c, ins[c.Rank()], &ops), &ops)
		if err != nil {
			return nil, err
		}
		qr, qc := mpi.FactorGrid(c.Size())
		for _, part := range routePairs(c, qr, qc, rl, &ops) {
			words[c.Rank()] += int64(len(part))
		}
		return nil, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	var sum int64
	for _, n := range words {
		sum += n
	}
	return sum
}

// BenchmarkPrepare measures one preprocessing epoch — cyclic redistribution,
// degree relabeling, 2D block build — on RMAT scale 14 over 4 ranks: the
// part of a one-shot count, a cluster build and a full staleness rebuild
// that is not the kernel. Per directed adjacency entry it reports the bytes
// an epoch allocates (alloc-B/entry) and the bytes the 2D exchange sends
// (route-B/entry).
func BenchmarkPrepare(b *testing.B) {
	g, err := rmat.G500.Generate(14, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	w, ins := scatterWorld(b, g, 4)
	defer w.Close()
	entries := float64(len(g.Adj))
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		prepareEpoch(b, w, ins)
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(entries, "entries")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/entries, "alloc-B/entry")
	b.ReportMetric(float64(4*routedWords(b, w, ins))/entries, "route-B/entry")
}

// TestPrepareAllocationBudget keeps the preprocessing diet from regressing:
// one Prepare epoch may allocate at most 26 bytes per directed adjacency
// entry, all ranks together (the append-grown pair-list pipeline it replaced
// took about 200, the pair-list exchange about 38, the row-side 2D build
// with its L temporary and assembled 1D copy about 31). The resident blocks
// themselves are ~10 of those bytes.
func TestPrepareAllocationBudget(t *testing.T) {
	const budget = 26 // bytes per directed adjacency entry
	g := mustRMAT(t, rmat.G500, 12, 16, 1)
	w, ins := scatterWorld(t, g, 4)
	defer w.Close()
	prepareEpoch(t, w, ins) // warm the runtime: goroutine stacks, epoch state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prepareEpoch(t, w, ins)
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(g.Adj))
	t.Logf("Prepare allocated %.1f B per directed adjacency entry (%d entries)", perEntry, len(g.Adj))
	if perEntry > budget {
		t.Errorf("Prepare allocated %.1f B per directed adjacency entry, budget %d", perEntry, budget)
	}
}

// hotChurn is the write-hot workload of bench/ in label space: batches of
// 256 deletions and 256 insertions whose endpoints all come from a fixed hot
// set of 4 % of the labels, every one effective against the evolving graph.
type hotChurn struct {
	rng     *rand.Rand
	hot     []int32
	present map[[2]int32]bool // hot-set pairs (a < b) currently edges
	edges   [][2]int32        // the same pairs, for picking deletions
}

// newHotChurn prepares g on 4 ranks (Cannon) and reads the hot-set edges
// back out of the blocks' rows.
func newHotChurn(tb testing.TB, g *graph.Graph, seed int64) ([]*Prepared, *hotChurn) {
	tb.Helper()
	preps := make([]*Prepared, 4)
	_, err := mpi.Run(len(preps), testCfg(), func(c *mpi.Comm) (any, error) {
		p, err := prepareOn(c, g, 0, 0, EnumJIK)
		if err == nil {
			preps[c.Rank()] = p
		}
		return nil, err
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := &hotChurn{rng: rand.New(rand.NewSource(seed)), present: make(map[[2]int32]bool)}
	isHot := make(map[int32]bool)
	for _, v := range h.rng.Perm(int(g.N))[:g.N/25] {
		h.hot = append(h.hot, int32(v))
		isHot[int32(v)] = true
	}
	for rank, p := range preps {
		qr, qc, _ := p.GridShape()
		for _, v := range h.hot {
			if int(v)%qr != rank/qc {
				continue
			}
			for _, u := range p.AdjRow(v).AppendLabels(nil) {
				if e := [2]int32{v, u}; v < u && isHot[u] && !h.present[e] {
					h.present[e] = true
					h.edges = append(h.edges, e)
				}
			}
		}
	}
	return preps, h
}

// next draws one batch: canonical label pairs, no pair named twice.
func (h *hotChurn) next() (ins, del [][2]int32) {
	for len(del) < 256 && len(h.edges) > 0 {
		i := h.rng.Intn(len(h.edges))
		e := h.edges[i]
		h.edges[i] = h.edges[len(h.edges)-1]
		h.edges = h.edges[:len(h.edges)-1]
		del = append(del, e)
	}
	for len(ins) < 256 {
		a, b := h.hot[h.rng.Intn(len(h.hot))], h.hot[h.rng.Intn(len(h.hot))]
		if a > b {
			a, b = b, a
		}
		if e := [2]int32{a, b}; a != b && !h.present[e] {
			h.present[e] = true // deleted pairs stay marked until the batch is out
			ins = append(ins, e)
		}
	}
	for _, e := range del {
		delete(h.present, e)
	}
	h.edges = append(h.edges, ins...)
	return ins, del
}

// spliceAll is the local work of one Splice epoch: every rank routes the
// batch and splices its blocks (Splice adds one allreduce of the longest U
// row on top).
func spliceAll(preps []*Prepared, ins, del [][2]int32) {
	for rank, p := range preps {
		p.spliceBlocks(rank, ins, del)
	}
}

// BenchmarkSplice measures the resident write alone: 512-update hot-set
// batches spliced into the U, L and task blocks of all four ranks of
// an RMAT scale 14 graph, reported per batch per rank.
func BenchmarkSplice(b *testing.B) {
	g, err := rmat.G500.Generate(14, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	preps, churn := newHotChurn(b, g, 1)
	for i := 0; i < 8; i++ { // first growth of every array, scratch sizing
		ins, del := churn.next()
		spliceAll(preps, ins, del)
	}
	var bytes, mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ins, del := churn.next()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		spliceAll(preps, ins, del)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
	}
	perRank := float64(b.N * len(preps))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRank, "ns/batch/rank")
	b.ReportMetric(float64(bytes)/perRank, "B/batch/rank")
	b.ReportMetric(float64(mallocs)/perRank, "allocs/batch/rank")
}

// TestSpliceAllocationBudget keeps the write path's diet from regressing: in
// steady state — after the warm-up batches that first grow every array past
// its packed size and size the scratch — the splices of one 512-update batch
// may allocate at most 4 KB per rank, averaged over the window (an occasional
// outgrown array is the whole of it; the rebuild this replaced allocated
// every block anew, 1.2 MB per batch per rank on this graph).
func TestSpliceAllocationBudget(t *testing.T) {
	const budget = 4 << 10 // bytes per batch per rank
	const batches = 128
	preps, churn := newHotChurn(t, mustRMAT(t, rmat.G500, 14, 16, 1), 2)
	for i := 0; i < 16; i++ {
		ins, del := churn.next()
		spliceAll(preps, ins, del)
	}
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < batches; i++ {
		ins, del := churn.next()
		runtime.ReadMemStats(&before)
		spliceAll(preps, ins, del)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	perRank := float64(total) / float64(batches*len(preps))
	t.Logf("splices allocated %.0f B per batch per rank over %d batches", perRank, batches)
	if perRank > budget {
		t.Errorf("splices allocated %.0f B per batch per rank, budget %d", perRank, budget)
	}
}

// countWorld prepares g on a standing world — the shift schedule when qr is
// 0, else broadcasts on qr × qc — for repeated CountPrepared epochs.
func countWorld(tb testing.TB, g *graph.Graph, p, qr, qc int) (*mpi.World, []*Prepared) {
	tb.Helper()
	w := mpi.NewWorld(p, testCfg())
	preps := make([]*Prepared, p)
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		prep, err := prepareOn(c, g, qr, qc, EnumJIK)
		preps[c.Rank()] = prep
		return nil, err
	})
	if err != nil {
		w.Close()
		tb.Fatal(err)
	}
	return w, preps
}

// countEpoch runs one CountPrepared epoch.
func countEpoch(tb testing.TB, w *mpi.World, preps []*Prepared) {
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		return CountPrepared(c, preps[c.Rank()], Options{})
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// countShapes are the two schedules a resident count is measured on: the
// benchmark's shape (RMAT scale 14, 4 ranks, shifts) and a rectangular grid
// (RMAT scale 12, 2×3, broadcasts).
var countShapes = []struct {
	name             string
	scale, p, qr, qc int
}{{"rmat-s14-cannon4", 14, 4, 0, 0}, {"rmat-s12-summa2x3", 12, 6, 2, 3}}

// BenchmarkCountPrepared measures one resident count end to end — the
// alignment shifts or broadcasts of the resident blobs, the compute steps,
// the reduction — in ns, B and allocs per count, all ranks together.
func BenchmarkCountPrepared(b *testing.B) {
	for _, shape := range countShapes {
		b.Run(shape.name, func(b *testing.B) {
			g, err := rmat.G500.Generate(shape.scale, 16, 1)
			if err != nil {
				b.Fatal(err)
			}
			w, preps := countWorld(b, g, shape.p, shape.qr, shape.qc)
			defer w.Close()
			countEpoch(b, w, preps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				countEpoch(b, w, preps)
			}
		})
	}
}

// TestCountAllocationBudget is the in-tree guard of the benchmark's
// alloc_bytes_per_op bound on the read workloads: the operands travel as the
// resident blobs themselves, shifted and broadcast without a copy, so a
// count may allocate 16 KB per rank for everything it does (kernel bitmap,
// reduction buffers, the epoch) — on both schedules, whatever the graph's
// size.
func TestCountAllocationBudget(t *testing.T) {
	const perRank = 16 << 10
	for _, shape := range countShapes {
		w, preps := countWorld(t, mustRMAT(t, rmat.G500, shape.scale, 16, 1), shape.p, shape.qr, shape.qc)
		budget := uint64(perRank * shape.p)
		countEpoch(t, w, preps) // warm the runtime: goroutine stacks, epoch state
		// TotalAlloc is the whole process's: what other tests left running
		// can only add to it, so the least of a few counts is the count's own.
		alloc := ^uint64(0)
		for i := 0; i < 5; i++ {
			alloc = min(alloc, allocatedBy(func() { countEpoch(t, w, preps) }))
		}
		w.Close()
		t.Logf("%s: a count allocated %d B, budget %d B", shape.name, alloc, budget)
		if alloc > budget {
			t.Errorf("%s: a count allocated %d B, budget %d B", shape.name, alloc, budget)
		}
	}
}
