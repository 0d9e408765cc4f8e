package core

import (
	"runtime"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// BenchmarkKernelStep measures the kernel alone: one compute step of one
// rank of a 4-rank Cannon grid — rank 0's task block against its own U and L
// blocks, the operands it holds at step 0 — at one worker, on a skewed
// (RMAT scale 14) and a flat (Erdős–Rényi, same size) graph. ns/probe is the
// cost of one bitmap lookup with everything around it amortised in; a step
// must not allocate.
func BenchmarkKernelStep(b *testing.B) {
	er, err := rmat.ErdosRenyi(1<<14, 16<<14, 1)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := rmat.G500.Generate(14, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat-s14", rm}, {"er-s14", er}} {
		b.Run(in.name, func(b *testing.B) {
			var prep *Prepared
			_, err := mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
				p, err := prepareOn(c, in.g, 0, 0, EnumJIK)
				if c.Rank() == 0 {
					prep = p
				}
				return nil, err
			})
			if err != nil {
				b.Fatal(err)
			}
			blk := prep.blk
			maxURow, keyRange := prep.kernelSizing()
			pool := newKernelPool(1, keyRange, maxURow, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.run(&blk.task, blk.taskRows, &blk.ublk, &blk.lblk)
			}
			b.StopTimer()
			kc := pool.total()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(kc.probes), "ns/probe")
			b.ReportMetric(float64(kc.probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(kc.triangles)/float64(b.N), "hits/op")
		})
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

// BenchmarkPrepare measures one preprocessing epoch — cyclic redistribution,
// degree relabeling, 2D block build — on RMAT scale 14 over 4 ranks: the
// part of a one-shot count, a cluster build and a full staleness rebuild
// that is not the kernel.
func BenchmarkPrepare(b *testing.B) {
	g, err := rmat.G500.Generate(14, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	w, ins := scatterWorld(b, g, 4)
	defer w.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepareEpoch(b, w, ins)
	}
	b.ReportMetric(float64(len(g.Adj)), "entries")
}

// TestPrepareAllocationBudget keeps the preprocessing diet from regressing:
// one Prepare epoch may allocate at most 48 bytes per directed adjacency
// entry, all ranks together (the append-grown pair-list pipeline it replaced
// took about 200). The resident blocks themselves are ~10 of those bytes.
func TestPrepareAllocationBudget(t *testing.T) {
	const budget = 48 // bytes per directed adjacency entry
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
