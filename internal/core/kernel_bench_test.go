package core

import (
	"fmt"
	"runtime"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/hashset"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// benchBlocks builds one synthetic task row with nCols tasks: a U row of lu
// keys striding by 2 and L columns of lc keys striding by 3, so roughly a
// sixth of the shorter list intersects. Balanced shapes (lu ≈ lc) are the
// merge regime of the adaptive kernel; skewed shapes (lu >> lc) the hash
// regime.
func benchBlocks(nCols, lu, lc int) (task, u csrBlock, l cscBlock) {
	var taskPairs, uPairs, lPairs []int32
	for b := 0; b < nCols; b++ {
		taskPairs = append(taskPairs, 0, int32(b))
	}
	for i := 0; i < lu; i++ {
		uPairs = append(uPairs, 0, int32(2*i))
	}
	for b := 0; b < nCols; b++ {
		for i := 0; i < lc; i++ {
			lPairs = append(lPairs, int32(b), int32(3*i))
		}
	}
	task = csrFromPairs(1, taskPairs)
	u = csrFromPairs(1, uPairs)
	lcsr := csrFromPairs(int32(nCols), lPairs)
	l = cscBlock{cols: lcsr.rows, xadj: lcsr.xadj, adj: lcsr.adj}
	return task, u, l
}

// BenchmarkIntersect measures the kernel's inner loop — one task row's worth
// of (U-row × L-column) intersections — per routine (hash-only, sorted
// merge, adaptive selection) and per row shape (balanced lists, which the
// adaptive kernel sends to the merge scan, and skewed lists, which it keeps
// on the hash probe). probes/op and mergeops/op report the per-iteration
// counter streams, which are deterministic for a fixed shape.
func BenchmarkIntersect(b *testing.B) {
	shapes := []struct {
		name   string
		lu, lc int
	}{
		{"balanced-128x128", 128, 128},
		{"skewed-1024x16", 1024, 16},
	}
	const nCols = 64
	for _, sh := range shapes {
		task, u, l := benchBlocks(nCols, sh.lu, sh.lc)
		set := hashset.New(8 * sh.lu)
		runRow := func(opt Options, kc *kernelCounters) {
			kernelRow(0, &task, &u, &l, set, opt, kc)
		}
		b.Run(fmt.Sprintf("hash/%s", sh.name), func(b *testing.B) {
			var kc kernelCounters
			for i := 0; i < b.N; i++ {
				runRow(Options{NoAdaptiveIntersect: true}, &kc)
			}
			reportKernelMetrics(b, kc)
		})
		b.Run(fmt.Sprintf("merge/%s", sh.name), func(b *testing.B) {
			urow := u.row(0)
			var kc kernelCounters
			for i := 0; i < b.N; i++ {
				for bb := int32(0); bb < int32(nCols); bb++ {
					mergeIntersect(urow, l.col(bb), &kc)
				}
			}
			reportKernelMetrics(b, kc)
		})
		b.Run(fmt.Sprintf("adaptive/%s", sh.name), func(b *testing.B) {
			var kc kernelCounters
			for i := 0; i < b.N; i++ {
				runRow(Options{}, &kc)
			}
			reportKernelMetrics(b, kc)
		})
	}
}

func reportKernelMetrics(b *testing.B, kc kernelCounters) {
	b.ReportMetric(float64(kc.probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(kc.mergeOps)/float64(b.N), "mergeops/op")
	b.ReportMetric(float64(kc.triangles)/float64(b.N), "hits/op")
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
