package mpi

import (
	"math"
	"strings"
	"testing"
)

// Failure-injection tests: the runtime must surface rank failures as errors
// with enough context to debug, never hang or silently miscount.

func TestPanicInRankCarriesStack(t *testing.T) {
	_, err := Run(3, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 2 {
			panic("injected failure")
		}
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*RankPanicError)
	if !ok {
		t.Fatalf("got %T", err)
	}
	if pe.Rank != 2 {
		t.Errorf("rank %d", pe.Rank)
	}
	if !strings.Contains(pe.Error(), "injected failure") {
		t.Errorf("message: %s", pe.Error())
	}
	if pe.Stack == "" {
		t.Error("no stack captured")
	}
}

func TestFirstErrorByRankOrderWins(t *testing.T) {
	_, err := Run(4, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 1 || c.Rank() == 3 {
			return nil, errorString("fail-" + string(rune('0'+c.Rank())))
		}
		return nil, nil
	})
	if err == nil || err.Error() != "fail-1" {
		t.Fatalf("got %v", err)
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	_, err := Run(2, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Send(5, 1, []byte{1}) // out of range
		}
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func TestRecvFromInvalidRankPanics(t *testing.T) {
	_, err := Run(2, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Recv(-1, 1)
		}
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func TestReduceLengthMismatchPanics(t *testing.T) {
	_, err := Run(2, testCfg(), func(c *Comm) (any, error) {
		v := []int64{1}
		if c.Rank() == 1 {
			v = []int64{1, 2}
		}
		c.AllreduceInt64s(v, OpSum)
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected panic error for mismatched reduce lengths")
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-size world")
		}
	}()
	NewWorld(0, testCfg())
}

func TestOpString(t *testing.T) {
	if OpSum.String() != "sum" || OpMax.String() != "max" || OpMin.String() != "min" {
		t.Error("op names")
	}
	if Op(42).String() == "" {
		t.Error("unknown op should still render")
	}
}

func TestZeroCostModelChargesNothing(t *testing.T) {
	res := mustRun(t, 2, Config{Model: CostModel{Beta: math.Inf(1)}, ComputeSlots: 1}, func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 1<<20))
		} else {
			c.Recv(0, 1)
		}
		return c.Stats(), nil
	})
	if s := res[0].(Stats); s.CommTime != 0 {
		t.Errorf("sender charged %v comm time under zero model", s.CommTime)
	}
	// The receiver's clock jumps to the sender's at the send — the sender's
	// local work, which the receiver really sat out blocked or waiting for
	// the one slot. Nothing is charged on top of that wait.
	if s := res[1].(Stats); s.CommTime > s.WallComm {
		t.Errorf("receiver charged %v comm time under zero model, beyond its measured wait of %v", s.CommTime, s.WallComm)
	}
}
