package mpi

import "testing"

func TestFactorGridShapes(t *testing.T) {
	for p := 1; p <= 200; p++ {
		qr, qc := FactorGrid(p)
		if qr*qc != p {
			t.Fatalf("FactorGrid(%d) = %dx%d does not tile", p, qr, qc)
		}
		if qr > qc {
			t.Fatalf("FactorGrid(%d) = %dx%d not qr<=qc", p, qr, qc)
		}
		// qr must be the largest divisor <= sqrt(p).
		for d := qr + 1; d*d <= p; d++ {
			if p%d == 0 {
				t.Fatalf("FactorGrid(%d) = %dx%d misses better divisor %d", p, qr, qc, d)
			}
		}
	}
}

func TestRectGridGeometry(t *testing.T) {
	mustRun(t, 6, testCfg(), func(c *Comm) (any, error) {
		g, err := NewGrid(c, 2, 3)
		if err != nil {
			return nil, err
		}
		if g.Rows() != 2 || g.Cols() != 3 {
			t.Errorf("shape %dx%d", g.Rows(), g.Cols())
		}
		if g.RankAt(g.Row(), g.Col()) != c.Rank() {
			t.Errorf("rank %d: RankAt roundtrip failed", c.Rank())
		}
		if g.RankAt(-1, -1) != g.RankAt(1, 2) {
			t.Errorf("wraparound broken")
		}
		return nil, nil
	})
}

func TestRectGridRejectsBadShape(t *testing.T) {
	mustRun(t, 6, testCfg(), func(c *Comm) (any, error) {
		if _, err := NewGrid(c, 2, 2); err == nil {
			t.Error("expected error: 2x2 != 6")
		}
		if _, err := NewGrid(c, 0, 6); err == nil {
			t.Error("expected error: zero dimension")
		}
		return nil, nil
	})
}

func TestRectGridRowBcast(t *testing.T) {
	// Every root column, every grid row: all row members receive the
	// root's payload.
	for rootCol := 0; rootCol < 4; rootCol++ {
		rootCol := rootCol
		mustRun(t, 8, testCfg(), func(c *Comm) (any, error) {
			g, err := NewGrid(c, 2, 4)
			if err != nil {
				return nil, err
			}
			var data []byte
			if g.Col() == rootCol {
				data = []byte{byte(g.Row()), byte(rootCol)}
			}
			got := g.BcastRow(rootCol, data)
			if len(got) != 2 || got[0] != byte(g.Row()) || got[1] != byte(rootCol) {
				t.Errorf("rank %d rootCol %d: got %v", c.Rank(), rootCol, got)
			}
			return nil, nil
		})
	}
}

func TestRectGridColBcast(t *testing.T) {
	for rootRow := 0; rootRow < 3; rootRow++ {
		rootRow := rootRow
		mustRun(t, 6, testCfg(), func(c *Comm) (any, error) {
			g, err := NewGrid(c, 3, 2)
			if err != nil {
				return nil, err
			}
			var data []byte
			if g.Row() == rootRow {
				data = []byte{byte(g.Col()), byte(rootRow), 99}
			}
			got := g.BcastCol(rootRow, data)
			if len(got) != 3 || got[0] != byte(g.Col()) || got[1] != byte(rootRow) {
				t.Errorf("rank %d rootRow %d: got %v", c.Rank(), rootRow, got)
			}
			return nil, nil
		})
	}
}

func TestRectGridDegenerate1D(t *testing.T) {
	// A 1×p grid: row broadcast spans everyone, column broadcast is a
	// no-op on singleton columns.
	p := 5
	mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
		g, err := NewGrid(c, 1, p)
		if err != nil {
			return nil, err
		}
		var data []byte
		if g.Col() == 3 {
			data = []byte{42}
		}
		if got := g.BcastRow(3, data); len(got) != 1 || got[0] != 42 {
			t.Errorf("rank %d: %v", c.Rank(), got)
		}
		own := []byte{byte(c.Rank())}
		if got := g.BcastCol(0, own); got[0] != byte(c.Rank()) {
			t.Errorf("singleton column bcast changed data")
		}
		return nil, nil
	})
}

// TestGridMoversSharePayload: on an in-process world the movers hand on the
// caller's bytes themselves — every rank a broadcast or a shift reaches reads
// the sender's buffer — which is what lets a count ship resident blocks
// without a copy.
func TestGridMoversSharePayload(t *testing.T) {
	bufs := make([][]byte, 6)
	for r := range bufs {
		bufs[r] = []byte{byte(r), 7}
	}
	mustRun(t, 6, testCfg(), func(c *Comm) (any, error) {
		g, err := NewGrid(c, 2, 3)
		if err != nil {
			return nil, err
		}
		var data []byte
		if g.Col() == 1 {
			data = bufs[c.Rank()]
		}
		if got, root := g.BcastRow(1, data), bufs[g.RankAt(g.Row(), 1)]; &got[0] != &root[0] {
			t.Errorf("rank %d: the row broadcast copied the root's payload", c.Rank())
		}
		if got, src := g.ShiftColUp(bufs[c.Rank()], 1), bufs[g.RankAt(g.Row()+1, g.Col())]; &got[0] != &src[0] {
			t.Errorf("rank %d: the column shift copied the payload", c.Rank())
		}
		return nil, nil
	})
}

func TestRectGridBcastConsecutive(t *testing.T) {
	// Back-to-back broadcasts with rotating roots must not cross-deliver.
	mustRun(t, 6, testCfg(), func(c *Comm) (any, error) {
		g, err := NewGrid(c, 2, 3)
		if err != nil {
			return nil, err
		}
		for round := 0; round < 6; round++ {
			root := round % 3
			var data []byte
			if g.Col() == root {
				data = []byte{byte(round)}
			}
			got := g.BcastRow(root, data)
			if got[0] != byte(round) {
				t.Errorf("round %d: got %v", round, got)
			}
		}
		return nil, nil
	})
}
