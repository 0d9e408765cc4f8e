package delta

import (
	"math/rand"
	"runtime"
	"testing"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// TestApplyAllocationBudget keeps the write epoch's allocation from
// regressing: in steady state — after warm-up batches that grow the blocks
// past their packed size — one 512-update hot-set batch through Apply on
// RMAT scale 12 with 4 ranks may allocate at most budget bytes, all ranks
// together, averaged over the window. Nothing on the path is pooled, so
// the race detector sees the same figure.
func TestApplyAllocationBudget(t *testing.T) {
	const budget = 346 << 10 // bytes per batch: ~308 KB measured, ~15 % headroom
	const warmup, batches = 8, 32
	w, preps, churn := hotWorld(t, 12)
	defer w.Close()
	for i := 0; i < warmup; i++ {
		applyBatch(t, w, preps, churn.next(t))
	}
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < batches; i++ {
		batch := churn.next(t)
		runtime.ReadMemStats(&before)
		applyBatch(t, w, preps, batch)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	perBatch := float64(total) / batches
	t.Logf("Apply allocated %.0f B per 512-update batch over %d batches", perBatch, batches)
	if perBatch > budget {
		t.Errorf("Apply allocated %.0f B per 512-update batch, budget %d", perBatch, budget)
	}
}

// BenchmarkApply pushes 512-update hot-set batches through Apply on RMAT
// scale 14 with 4 ranks, after warm-up batches: B/op and allocs/op are all
// ranks together, msgs/batch the messages one epoch sends.
func BenchmarkApply(b *testing.B) {
	w, preps, churn := hotWorld(b, 14)
	defer w.Close()
	for i := 0; i < 8; i++ {
		applyBatch(b, w, preps, churn.next(b))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := churn.next(b)
		b.StartTimer()
		msgs += applyBatch(b, w, preps, batch)
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/batch")
}

// hotWorld prepares RMAT at the given scale on a standing world of 4 ranks
// and returns it with a hot-set churn over the graph.
func hotWorld(tb testing.TB, scale int) (*mpi.World, []*core.Prepared, *hotChurn) {
	tb.Helper()
	g, err := rmat.G500.Generate(scale, 16, 1)
	if err != nil {
		tb.Fatal(err)
	}
	const ranks = 4
	w := mpi.NewWorld(ranks, mpi.Config{ComputeSlots: ranks})
	preps := make([]*core.Prepared, ranks)
	_, err = w.Run(func(c *mpi.Comm) (any, error) {
		var gin *graph.Graph
		if c.Rank() == 0 {
			gin = g
		}
		d, err := dgraph.ScatterGraph(c, 0, gin)
		if err != nil {
			return nil, err
		}
		preps[c.Rank()], err = core.Prepare(c, d, core.Options{})
		return nil, err
	})
	if err != nil {
		w.Close()
		tb.Fatal(err)
	}
	return w, preps, newHotChurn(g, 1)
}

// applyBatch applies one batch on every rank and returns the messages the
// epoch sent, summed over the ranks.
func applyBatch(tb testing.TB, w *mpi.World, preps []*core.Prepared, batch []Update) int64 {
	tb.Helper()
	res, err := w.Run(func(c *mpi.Comm) (any, error) {
		_, err := Apply(c, preps[c.Rank()], batch)
		return c.Stats().MsgsSent, err
	})
	if err != nil {
		tb.Fatal(err)
	}
	var msgs int64
	for _, m := range res {
		msgs += m.(int64)
	}
	return msgs
}

// hotChurn draws update batches that churn the edges among a hot set of
// 4 % of the vertices: 256 deletions of present hot edges and 256
// insertions of absent hot pairs, no pair named twice.
type hotChurn struct {
	rng     *rand.Rand
	n       int64
	hot     []int32
	present map[[2]int32]bool
	edges   [][2]int32 // the present hot edges, in no order
}

func newHotChurn(g *graph.Graph, seed int64) *hotChurn {
	h := &hotChurn{rng: rand.New(rand.NewSource(seed)), n: int64(g.N), present: map[[2]int32]bool{}}
	isHot := map[int32]bool{}
	for _, v := range h.rng.Perm(int(g.N))[:g.N/25] {
		h.hot = append(h.hot, int32(v))
		isHot[int32(v)] = true
	}
	for _, e := range g.Edges() {
		if isHot[e.U] && isHot[e.V] {
			h.present[[2]int32{e.U, e.V}] = true
			h.edges = append(h.edges, [2]int32{e.U, e.V})
		}
	}
	return h
}

// next returns the next batch, canonicalized, and records it as applied.
func (h *hotChurn) next(tb testing.TB) []Update {
	tb.Helper()
	var batch []Update
	for len(batch) < 256 && len(h.edges) > 0 {
		i := h.rng.Intn(len(h.edges))
		e := h.edges[i]
		h.edges[i] = h.edges[len(h.edges)-1]
		h.edges = h.edges[:len(h.edges)-1]
		batch = append(batch, Update{U: e[0], V: e[1], Op: OpDelete})
	}
	dels := len(batch)
	var ins [][2]int32
	for len(ins) < 256 {
		a, b := h.hot[h.rng.Intn(len(h.hot))], h.hot[h.rng.Intn(len(h.hot))]
		if e := [2]int32{min(a, b), max(a, b)}; a != b && !h.present[e] {
			h.present[e] = true
			ins = append(ins, e)
			batch = append(batch, Update{U: e[0], V: e[1], Op: OpInsert})
		}
	}
	h.edges = append(h.edges, ins...)
	for _, upd := range batch[:dels] {
		delete(h.present, [2]int32{upd.U, upd.V})
	}
	canon, _, err := Canonicalize(batch, h.n)
	if err != nil {
		tb.Fatal(err)
	}
	return canon
}
