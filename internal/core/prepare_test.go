package core

import (
	"reflect"
	"sync"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// Build-once / query-many tests: Prepare's resident state must serve
// repeated CountPrepared calls — inside one epoch and across epochs of the
// same world — with no preprocessing work and unchanged results.

func TestPrepareThenCountRepeatable(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 10, 8, 3)
	want := seqtc.Count(g)
	results, err := mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		prep, err := Prepare(c, in, Options{})
		if err != nil {
			return nil, err
		}
		var out []*Result
		for q := 0; q < 3; q++ {
			res, err := CountPrepared(c, prep, Options{})
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		for q, res := range v.([]*Result) {
			if res.Triangles != want {
				t.Errorf("rank %d query %d: %d triangles, want %d", r, q, res.Triangles, want)
			}
			if res.PreOps != 0 || res.PreprocessTime != 0 {
				t.Errorf("rank %d query %d: PreOps=%d PreprocessTime=%v, want 0 (no preprocessing per query)",
					r, q, res.PreOps, res.PreprocessTime)
			}
		}
	}
}

// TestConcurrentReadEpochsShareNoScratch runs two CountPrepared epochs at
// once as World.RunRead epochs over the same resident state. Every rank of
// both epochs waits for all the others before it counts, so both epochs'
// kernels are live together. Each must return, rank by rank, the Result an
// exclusive epoch returns (the wall-clock kernel time aside). Two kernels
// sharing a bitmap would corrupt each other's rows, so the counts would
// most likely differ; under -race (as in CI) the sharing is also a reported race.
func TestConcurrentReadEpochsShareNoScratch(t *testing.T) {
	const p = 4
	g := mustRMAT(t, rmat.G500, 12, 16, 1)
	// A compute slot for every rank of both epochs, so the ranks parked at
	// the rendezvous do not starve the others.
	w := mpi.NewWorld(p, mpi.Config{ComputeSlots: 2 * p})
	defer w.Close()
	preps := make([]*Prepared, p)
	if _, err := w.Run(func(c *mpi.Comm) (any, error) {
		prep, err := prepareOn(c, g, 0, 0, EnumJIK)
		preps[c.Rank()] = prep
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	counts := func(results []any) []Result {
		out := make([]Result, len(results))
		for r, v := range results {
			out[r] = *v.(*Result)
			out[r].LocalKernelTime = 0
		}
		return out
	}
	want, err := w.Run(func(c *mpi.Comm) (any, error) { return CountPrepared(c, preps[c.Rank()], Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		var rendezvous, done sync.WaitGroup
		rendezvous.Add(2 * p)
		var got [2][]any
		var errs [2]error
		for e := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				got[e], errs[e] = w.RunRead(func(c *mpi.Comm) (any, error) {
					rendezvous.Done()
					rendezvous.Wait()
					return CountPrepared(c, preps[c.Rank()], Options{})
				})
			}()
		}
		done.Wait()
		for e := range got {
			if errs[e] != nil {
				t.Fatalf("round %d epoch %d: %v", round, e, errs[e])
			}
			if !reflect.DeepEqual(counts(got[e]), counts(want)) {
				t.Fatalf("round %d epoch %d: %+v, exclusive epoch %+v", round, e, counts(got[e]), counts(want))
			}
		}
	}
}

func TestPreparedAcrossEpochs(t *testing.T) {
	// The resident-cluster pattern: Prepare in epoch 1, query in later
	// epochs of the same world, for both the Cannon and SUMMA schedules.
	g := mustRMAT(t, rmat.G500, 10, 8, 9)
	want := seqtc.Count(g)
	for _, tc := range []struct {
		name  string
		p     int
		summa bool
	}{
		{"cannon-4", 4, false},
		{"summa-6", 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mpi.NewWorld(tc.p, testCfg())
			defer w.Close()
			prep := make([]*Prepared, tc.p)
			_, err := w.Run(func(c *mpi.Comm) (any, error) {
				in, err := dgraph.ScatterInput{Graph: g}.Build(c)
				if err != nil {
					return nil, err
				}
				qr, qc := mpi.FactorGrid(c.Size())
				pr, err := PrepareGrid(c, in, qr, qc, tc.summa, Options{})
				if err != nil {
					return nil, err
				}
				prep[c.Rank()] = pr
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; epoch < 2; epoch++ {
				results, err := w.Run(func(c *mpi.Comm) (any, error) {
					return CountPrepared(c, prep[c.Rank()], Options{})
				})
				if err != nil {
					t.Fatalf("query epoch %d: %v", epoch, err)
				}
				res := results[0].(*Result)
				if res.Triangles != want {
					t.Errorf("query epoch %d: %d triangles, want %d", epoch, res.Triangles, want)
				}
				if res.PreOps != 0 {
					t.Errorf("query epoch %d: PreOps=%d, want 0", epoch, res.PreOps)
				}
				if res.CountTime != 0 || res.TotalTime != 0 || res.CommFracCount != 0 {
					t.Errorf("query epoch %d: CountTime=%v TotalTime=%v CommFracCount=%v, want 0 (only CountGrid reads the virtual clock)",
						epoch, res.CountTime, res.TotalTime, res.CommFracCount)
				}
			}
		})
	}
}

func TestCountComposesPrepareAndQuery(t *testing.T) {
	// The one-shot Count must still report the full pipeline accounting.
	g := mustRMAT(t, rmat.G500, 9, 8, 4)
	res := countVia(t, g, 4, Options{})
	if res.Triangles != seqtc.Count(g) {
		t.Errorf("triangles %d, want %d", res.Triangles, seqtc.Count(g))
	}
	if res.PreOps == 0 {
		t.Error("one-shot Count lost its preprocessing op count")
	}
	if res.TotalTime != res.PreprocessTime+res.CountTime {
		t.Errorf("TotalTime %v != PreprocessTime %v + CountTime %v",
			res.TotalTime, res.PreprocessTime, res.CountTime)
	}
}

func TestCountPreparedNilState(t *testing.T) {
	_, err := mpi.Run(1, testCfg(), func(c *mpi.Comm) (any, error) {
		return CountPrepared(c, nil, Options{})
	})
	if err == nil {
		t.Fatal("expected error for nil prepared state")
	}
}

func TestPreparedWedges(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 6)
	var want int64
	for v := int32(0); v < g.N; v++ {
		d := int64(g.Degree(v))
		want += d * (d - 1) / 2
	}
	results, err := mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		prep, err := Prepare(c, in, Options{})
		if err != nil {
			return nil, err
		}
		return prep.Wedges(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v.(int64) != want {
			t.Errorf("rank %d: wedges %d, want %d", r, v, want)
		}
	}
}
