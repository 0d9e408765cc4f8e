package mpi

import (
	"testing"
)

// Epoch tests: a World must support many Run calls — persistent rank
// goroutines, per-epoch virtual-clock/stats reset — on both transports.

func TestWorldMultipleEpochs(t *testing.T) {
	w := NewWorld(4, modelCfg())
	defer w.Close()
	for epoch := 0; epoch < 3; epoch++ {
		res, err := w.Run(func(c *Comm) (any, error) {
			if now := c.Time(); now < 0 || now > wallNoise {
				t.Errorf("epoch %d rank %d: virtual clock started at %v", epoch, c.Rank(), now)
			}
			s := c.Stats()
			if s.CompTime < 0 || s.CompTime > wallNoise {
				t.Errorf("epoch %d rank %d: compute time not reset: %+v", epoch, c.Rank(), s)
			}
			// WallComm is the wait for the first slot, the rest must be
			// exactly zero.
			s.CompTime, s.WallComm = 0, 0
			if s != (Stats{}) {
				t.Errorf("epoch %d rank %d: stats not reset: %+v", epoch, c.Rank(), s)
			}
			// A ring exchange so every epoch moves real messages.
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			got := c.SendRecv(next, 5, []byte{byte(c.Rank())}, prev)
			if int(got[0]) != prev {
				t.Errorf("epoch %d rank %d: got token %d, want %d", epoch, c.Rank(), got[0], prev)
			}
			c.Barrier()
			return c.Stats().MsgsSent, nil
		})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		for r, v := range res {
			if v.(int64) != 1 {
				t.Errorf("epoch %d rank %d: sent %d messages, want 1 (stats leaked across epochs)", epoch, r, v)
			}
		}
	}
	if w.epochs != 3 {
		t.Errorf("%d epochs, want 3", w.epochs)
	}
}

func TestEpochStateCarriesAcrossRuns(t *testing.T) {
	// The point of resident ranks: state built in epoch 1 is queried in
	// epoch 2 without rebuilding.
	w := NewWorld(3, testCfg())
	defer w.Close()
	resident := make([][]byte, 3)
	_, err := w.Run(func(c *Comm) (any, error) {
		resident[c.Rank()] = []byte{byte(c.Rank() * 10)}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(c *Comm) (any, error) {
		return int(resident[c.Rank()][0]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range res {
		if v.(int) != r*10 {
			t.Errorf("rank %d: resident state %d, want %d", r, v, r*10)
		}
	}
}

func TestRunAfterCloseFails(t *testing.T) {
	w := NewWorld(2, testCfg())
	if _, err := w.Run(func(c *Comm) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(func(c *Comm) (any, error) { return nil, nil }); err == nil {
		t.Fatal("Run on closed world should fail")
	}
}

func TestCloseIdempotent(t *testing.T) {
	w := NewWorld(2, testCfg())
	mustRunWorld(t, w, func(c *Comm) (any, error) { return nil, nil })
	for i := 0; i < 3; i++ {
		if err := w.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	// Closing a world that never ran an epoch must also work.
	w2 := NewWorld(2, testCfg())
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldSurvivesPanickedEpoch(t *testing.T) {
	// A panic in one epoch must not poison the world:
	// Close still returns and the error carries the panic.
	w := NewWorld(2, testCfg())
	defer w.Close()
	_, err := w.Run(func(c *Comm) (any, error) {
		if c.Rank() == 1 {
			panic("epoch panic")
		}
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected panic error")
	}
	if _, ok := err.(*RankPanicError); !ok {
		t.Fatalf("got %T", err)
	}
}

func TestTCPWorldMultipleEpochs(t *testing.T) {
	w, err := NewTCPWorld(4, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for epoch := 0; epoch < 3; epoch++ {
		res, err := w.Run(func(c *Comm) (any, error) {
			v := c.AllreduceInt64(int64(c.Rank()+epoch), OpSum)
			return v, nil
		})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		want := int64(0+1+2+3) + int64(4*epoch)
		for r, v := range res {
			if v.(int64) != want {
				t.Errorf("epoch %d rank %d: allreduce %d, want %d", epoch, r, v, want)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustRunWorld(t *testing.T, w *World, fn RankFunc) []any {
	t.Helper()
	res, err := w.Run(fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}
