package mpi

import "testing"

func runTCP(t *testing.T, p int, fn RankFunc) []any {
	t.Helper()
	w, err := NewTCPWorld(p, testCfg())
	if err != nil {
		t.Fatalf("NewTCPWorld: %v", err)
	}
	defer func() {
		if err := w.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	res, err := w.Run(fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestTCPSendRecv(t *testing.T) {
	runTCP(t, 2, func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("over the wire"))
		} else {
			if got := string(c.Recv(0, 5)); got != "over the wire" {
				t.Errorf("got %q", got)
			}
		}
		return nil, nil
	})
}

func TestTCPCollectives(t *testing.T) {
	p := 5
	runTCP(t, p, func(c *Comm) (any, error) {
		sum := c.AllreduceInt64(int64(c.Rank()+1), OpSum)
		if want := int64(p*(p+1)) / 2; sum != want {
			t.Errorf("rank %d: sum %d want %d", c.Rank(), sum, want)
		}
		got := c.Bcast(2, pickBytes(c.Rank() == 2, []byte{9, 8, 7}))
		if len(got) != 3 || got[0] != 9 {
			t.Errorf("rank %d: bcast %v", c.Rank(), got)
		}
		ex := c.ExscanInt64s([]int64{1})[0]
		if ex != int64(c.Rank()) {
			t.Errorf("rank %d: exscan %d", c.Rank(), ex)
		}
		return nil, nil
	})
}

func pickBytes(cond bool, b []byte) []byte {
	if cond {
		return b
	}
	return nil
}

func TestTCPAlltoallv(t *testing.T) {
	p := 4
	runTCP(t, p, func(c *Comm) (any, error) {
		send := make([][]byte, p)
		for d := 0; d < p; d++ {
			send[d] = []byte{byte(c.Rank()), byte(d)}
		}
		got := c.Alltoallv(send)
		for s := 0; s < p; s++ {
			if got[s][0] != byte(s) || got[s][1] != byte(c.Rank()) {
				t.Errorf("from %d: %v", s, got[s])
			}
		}
		if err := checkSparseAlltoallv(c); err != nil {
			t.Error(err)
		}
		return nil, nil
	})
}

func TestTCPLargeMessages(t *testing.T) {
	const n = 1 << 20 // larger than socket buffers: exercises framing
	runTCP(t, 2, func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 31)
			}
			c.SendOwn(1, 1, data)
		} else {
			got := c.Recv(0, 1)
			if len(got) != n {
				t.Fatalf("len %d", len(got))
			}
			for _, i := range []int{0, 12345, n - 1} {
				if got[i] != byte(i*31) {
					t.Errorf("byte %d corrupt", i)
				}
			}
		}
		return nil, nil
	})
}

func TestTCPVirtualTimeTravelsInFrames(t *testing.T) {
	cfg := Config{Model: CostModel{Alpha: 1e-3, Beta: 1e9, Overhead: 0}, ComputeSlots: 2}
	w, err := NewTCPWorld(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := w.Run(func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.elapse(1.0)
			c.Send(1, 1, []byte{1})
		} else {
			c.Recv(0, 1)
		}
		return c.Time(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[1].(float64); got < 1.0 {
		t.Fatalf("receiver clock %v did not observe sender's elapsed time", got)
	}
}
