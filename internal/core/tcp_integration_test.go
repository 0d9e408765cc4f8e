package core

import (
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// TestCountOverTCPTransport runs the full distributed pipeline with every
// message travelling through real loopback TCP sockets and checks the result
// against the sequential oracle — an end-to-end integration test of the wire
// protocol, the blob framing, and the algorithm together.
func TestCountOverTCPTransport(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 9, 8, 21)
	want := seqtc.Count(g)

	world, err := mpi.NewTCPWorld(9, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := world.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	results, err := world.Run(func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		return Count(c, in, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, res := range results {
		if got := res.(*Result).Triangles; got != want {
			t.Errorf("rank %d: %d triangles, want %d", r, got, want)
		}
	}
}

// TestSUMMAOverTCPTransport does the same for the SUMMA schedule on a
// rectangular grid.
func TestSUMMAOverTCPTransport(t *testing.T) {
	g := mustRMAT(t, rmat.Twitterish, 8, 8, 2)
	want := seqtc.Count(g)

	world, err := mpi.NewTCPWorld(6, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	results, err := world.Run(func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		return CountGrid(c, in, 2, 3, true, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].(*Result).Triangles; got != want {
		t.Errorf("%d triangles, want %d", got, want)
	}
}
