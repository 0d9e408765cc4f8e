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
	const budget = 400 << 10 // bytes per batch: ~353 KB measured, ~16 % headroom
	const warmup, batches = 8, 32
	g, err := rmat.G500.Generate(12, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	w := mpi.NewWorld(ranks, mpi.Config{Model: mpi.ZeroCostModel(), ComputeSlots: ranks})
	defer w.Close()
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
		t.Fatal(err)
	}
	churn := newHotChurn(g, 1)
	apply := func(batch []Update) {
		t.Helper()
		_, err := w.Run(func(c *mpi.Comm) (any, error) {
			_, err := Apply(c, preps[c.Rank()], batch)
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		apply(churn.next(t))
	}
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < batches; i++ {
		batch := churn.next(t)
		runtime.ReadMemStats(&before)
		apply(batch)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	perBatch := float64(total) / batches
	t.Logf("Apply allocated %.0f B per 512-update batch over %d batches", perBatch, batches)
	if perBatch > budget {
		t.Errorf("Apply allocated %.0f B per 512-update batch, budget %d", perBatch, budget)
	}
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
func (h *hotChurn) next(t *testing.T) []Update {
	t.Helper()
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
		t.Fatal(err)
	}
	return canon
}
