package tc2d

import (
	"runtime"
	"strings"
	"testing"
)

// End-to-end contract of the intra-rank parallel kernel: any KernelThreads
// value must reproduce the sequential count and counters exactly, across
// grid schedules, transports, and the delta-update write path.

func TestKernelThreadsEndToEnd(t *testing.T) {
	g, err := GenerateRMAT(G500, 9, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	want := CountSequential(g)
	for _, transport := range []Transport{TransportChannel, TransportTCP} {
		for _, ranks := range []int{4, 6} { // Cannon and SUMMA schedules
			var oracle *Result
			for _, threads := range []int{1, 3} {
				res, err := Count(g, Options{Ranks: ranks, Transport: transport, KernelThreads: threads})
				if err != nil {
					t.Fatalf("%v ranks=%d threads=%d: %v", transport, ranks, threads, err)
				}
				if res.Triangles != want {
					t.Errorf("%v ranks=%d threads=%d: %d triangles, want %d",
						transport, ranks, threads, res.Triangles, want)
				}
				if oracle == nil {
					oracle = res
					continue
				}
				if res.Probes != oracle.Probes || res.MapTasks != oracle.MapTasks {
					t.Errorf("%v ranks=%d threads=%d: counters (probes=%d map=%d) != 1-thread (%d, %d)",
						transport, ranks, threads, res.Probes, res.MapTasks, oracle.Probes, oracle.MapTasks)
				}
			}
		}
	}
}

func TestKernelThreadsValidation(t *testing.T) {
	g := testClusterGraph(t)
	if _, err := Count(g, Options{Ranks: 4, KernelThreads: -1}); err == nil || !strings.Contains(err.Error(), "KernelThreads") {
		t.Errorf("Count with KernelThreads=-1: err=%v, want rejection", err)
	}
	if _, err := NewCluster(g, Options{Ranks: 4, KernelThreads: -2}); err == nil || !strings.Contains(err.Error(), "KernelThreads") {
		t.Errorf("NewCluster with KernelThreads=-2: err=%v, want rejection", err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Count(QueryOptions{KernelThreads: -1}); err == nil || !strings.Contains(err.Error(), "KernelThreads") {
		t.Errorf("cluster Count with KernelThreads=-1: err=%v, want rejection", err)
	}
}

// TestClusterKernelConfig checks the cluster surface: the standing
// KernelThreads resolves query defaults, a per-query override and the
// ablation switches compose with it, Info accumulates the intersected pairs
// of completed epochs, and a cluster left at KernelThreads 0 shares the host
// among its ranks instead of giving each rank every CPU.
func TestClusterKernelConfig(t *testing.T) {
	g := testClusterGraph(t)
	want := CountSequential(g)
	cl, err := NewCluster(g, Options{Ranks: 4, KernelThreads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.Info().KernelThreads; got != 3 {
		t.Errorf("Info.KernelThreads=%d, want 3", got)
	}
	standing, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if standing.Triangles != want {
		t.Errorf("default query: %d triangles, want %d", standing.Triangles, want)
	}
	if standing.KernelThreads != 3 {
		t.Errorf("query inherited KernelThreads=%d, want the cluster's 3", standing.KernelThreads)
	}
	probing, err := cl.Count(QueryOptions{NoDirectHash: true, KernelThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if probing.KernelThreads != 1 {
		t.Errorf("per-query override gave KernelThreads=%d, want 1", probing.KernelThreads)
	}
	if probing.Triangles != want || probing.Probes != standing.Probes || probing.MapTasks != standing.MapTasks {
		t.Errorf("NoDirectHash query: triangles=%d probes=%d map=%d, bitmap kernel %d, %d, %d",
			probing.Triangles, probing.Probes, probing.MapTasks, want, standing.Probes, standing.MapTasks)
	}
	if wantMap := standing.MapTasks + probing.MapTasks; cl.Info().MapTasks != wantMap {
		t.Errorf("Info.MapTasks=%d, want %d accumulated over both epochs", cl.Info().MapTasks, wantMap)
	}

	slots := 2
	dcl, err := NewCluster(g, Options{Ranks: 4, ComputeSlots: slots})
	if err != nil {
		t.Fatal(err)
	}
	defer dcl.Close()
	share := max(1, min(runtime.GOMAXPROCS(0), runtime.NumCPU())/slots)
	if got := dcl.Info().KernelThreads; got != share {
		t.Errorf("KernelThreads 0 on 4 ranks over %d compute slots resolved to %d workers per rank, want %d", slots, got, share)
	}
}

// TestKernelThreadsDeltaStream is the write-path differential: the same
// update stream applied on a multi-threaded cluster and on a
// single-threaded one must maintain identical triangle counts and make the
// same number of bitmap lookups batch for batch, and agree with a full
// recount at the end.
func TestKernelThreadsDeltaStream(t *testing.T) {
	g := testClusterGraph(t)
	par, err := NewCluster(g, Options{Ranks: 4, KernelThreads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	seq, err := NewCluster(g, Options{Ranks: 4, KernelThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()

	n := int32(par.Info().N)
	for b := 0; b < 4; b++ {
		var batch []EdgeUpdate
		for i := 0; i < 40; i++ {
			u := int32((b*511 + i*37) % int(n))
			v := int32((b*257 + i*91 + 1) % int(n))
			if u == v {
				v = (v + 1) % n
			}
			op := UpdateInsert
			if i%5 == 4 {
				op = UpdateDelete
			}
			batch = append(batch, EdgeUpdate{U: u, V: v, Op: op})
		}
		pres, err := par.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("parallel batch %d: %v", b, err)
		}
		sres, err := seq.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("sequential batch %d: %v", b, err)
		}
		if pres.Triangles != sres.Triangles || pres.DeltaTriangles != sres.DeltaTriangles {
			t.Fatalf("batch %d: parallel Δ=%d total=%d, sequential Δ=%d total=%d",
				b, pres.DeltaTriangles, pres.Triangles, sres.DeltaTriangles, sres.Triangles)
		}
		if pres.Probes != sres.Probes {
			t.Fatalf("batch %d: the delta passes made %d bitmap lookups on 3 workers, %d on 1", b, pres.Probes, sres.Probes)
		}
	}
	pcount, err := par.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scount, err := seq.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pcount.Triangles != scount.Triangles {
		t.Errorf("final recount: parallel %d != sequential %d", pcount.Triangles, scount.Triangles)
	}
}
