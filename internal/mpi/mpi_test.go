package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// testCfg runs the zero-cost model: messages are free, so a rank's clock
// moves only by its own compute and by waiting for a sender's.
func testCfg() Config {
	return Config{Model: CostModel{Beta: math.Inf(1)}, ComputeSlots: 4}
}

// elapse charges d seconds of local work to c's virtual clock without
// executing anything.
func (c *Comm) elapse(d float64) {
	c.vt += d
	c.stats.CompTime += d
}

func modelCfg() Config {
	return Config{Model: CostModel{Alpha: 1e-6, Beta: 1e9, Overhead: 1e-7}, ComputeSlots: 4}
}

func mustRun(t *testing.T, p int, cfg Config, fn RankFunc) []any {
	t.Helper()
	res, err := Run(p, cfg, fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSendRecvRoundtrip(t *testing.T) {
	mustRun(t, 2, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
			got := c.Recv(1, 8)
			if string(got) != "world" {
				t.Errorf("rank 0 got %q", got)
			}
		} else {
			got := c.Recv(0, 7)
			if string(got) != "hello" {
				t.Errorf("rank 1 got %q", got)
			}
			c.Send(0, 8, []byte("world"))
		}
		return nil, nil
	})
}

func TestSendCopies(t *testing.T) {
	mustRun(t, 2, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 1, buf)
			buf[0] = 99 // must not affect the receiver
			c.Barrier()
		} else {
			got := c.Recv(0, 1)
			c.Barrier()
			if got[0] != 1 {
				t.Errorf("send did not copy: got %v", got)
			}
		}
		return nil, nil
	})
}

func TestTagMismatchPanics(t *testing.T) {
	_, err := Run(2, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte{1})
		} else {
			c.Recv(0, 2)
		}
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected panic error from tag mismatch")
	}
	if _, ok := err.(*RankPanicError); !ok {
		t.Fatalf("expected RankPanicError, got %T: %v", err, err)
	}
}

func TestTypedHelpers(t *testing.T) {
	mustRun(t, 2, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.SendOwn(1, 1, Int32sAsBytes([]int32{-1, 0, 1 << 30}))
			c.SendInt64s(1, 2, []int64{-1, 1 << 60})
		} else {
			i32 := c.RecvInt32s(0, 1)
			if len(i32) != 3 || i32[0] != -1 || i32[2] != 1<<30 {
				t.Errorf("int32s: %v", i32)
			}
			i64 := c.RecvInt64s(0, 2)
			if len(i64) != 2 || i64[1] != 1<<60 {
				t.Errorf("int64s: %v", i64)
			}
		}
		return nil, nil
	})
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		for root := 0; root < p; root += 3 {
			root := root
			mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
				var data []byte
				if c.Rank() == root {
					data = []byte{42, byte(root)}
				}
				got := c.Bcast(root, data)
				if len(got) != 2 || got[0] != 42 || got[1] != byte(root) {
					t.Errorf("p=%d root=%d rank=%d got %v", p, root, c.Rank(), got)
				}
				return nil, nil
			})
		}
	}
}

func TestAllreduceSumMaxMin(t *testing.T) {
	for _, p := range []int{1, 2, 5, 9, 16} {
		p := p
		mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
			r := int64(c.Rank())
			sum := c.AllreduceInt64(r+1, OpSum)
			if want := int64(p*(p+1)) / 2; sum != want {
				t.Errorf("p=%d sum=%d want %d", p, sum, want)
			}
			max := c.AllreduceInt64(r, OpMax)
			if max != int64(p-1) {
				t.Errorf("p=%d max=%d", p, max)
			}
			min := c.AllreduceInt64(-r, OpMin)
			if min != int64(-(p - 1)) {
				t.Errorf("p=%d min=%d", p, min)
			}
			f := c.AllreduceFloat64s([]float64{float64(c.Rank())}, OpSum)[0]
			if want := float64(p*(p-1)) / 2; f != want {
				t.Errorf("p=%d fsum=%v want %v", p, f, want)
			}
			return nil, nil
		})
	}
}

func TestAllreduceVector(t *testing.T) {
	p := 7
	mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
		v := []int64{int64(c.Rank()), 1, int64(-c.Rank())}
		got := c.AllreduceInt64s(v, OpSum)
		want := []int64{int64(p * (p - 1) / 2), int64(p), int64(-p * (p - 1) / 2)}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("elem %d: got %d want %d", i, got[i], want[i])
			}
		}
		// The caller's buffer must be untouched.
		if v[0] != int64(c.Rank()) {
			t.Errorf("allreduce mutated input")
		}
		return nil, nil
	})
}

// TestAllreduceResultsAreOwned: every rank's AllreduceInt64s result is a
// vector of its own, on every transport. A rank that overwrites its result
// changes no other rank's result, its own input or a later collective; the
// race detector also reports two ranks sharing one array. AllreduceLanes
// rides the same path.
func TestAllreduceResultsAreOwned(t *testing.T) {
	fn := func(c *Comm) (any, error) {
		p, r := int64(c.Size()), int64(c.Rank())
		in := []int64{r, 1, -r, 1 << 40}
		v := slices.Clone(in)
		want := []int64{p * (p - 1) / 2, p, -p * (p - 1) / 2, p << 40}
		got := c.AllreduceInt64s(v, OpSum)
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("rank %d: allreduce %v, want %v", r, got, want)
		}
		for i := range got {
			got[i] += 1000 * (r + 1)
		}
		c.Barrier() // every rank has written its result
		for i := range got {
			if got[i] != want[i]+1000*(r+1) {
				return nil, fmt.Errorf("rank %d: result %v changed by another rank", r, got)
			}
		}
		if !slices.Equal(v, in) {
			return nil, fmt.Errorf("rank %d: input %v changed to %v", r, in, v)
		}
		if again := c.AllreduceInt64s(v, OpSum); !slices.Equal(again, want) {
			return nil, fmt.Errorf("rank %d: the next allreduce gave %v, want %v", r, again, want)
		}
		if lanes := c.AllreduceLanes([]int64{r, r, -r}, []Op{OpSum, OpMax, OpMin}); !slices.Equal(lanes, []int64{p * (p - 1) / 2, p - 1, 1 - p}) {
			return nil, fmt.Errorf("rank %d: lanes %v", r, lanes)
		}
		return nil, nil
	}
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		if _, err := Run(p, testCfg(), fn); err != nil {
			t.Errorf("channel p=%d: %v", p, err)
		}
		tw, err := NewTCPWorld(p, testCfg())
		if err != nil {
			t.Fatalf("tcp p=%d: %v", p, err)
		}
		if _, err := tw.Run(fn); err != nil {
			t.Errorf("tcp p=%d: %v", p, err)
		}
		tw.Close()
		// Two processes, ranks interleaved; one rank needs no link.
		var even, odd []int
		for r := 0; r < p; r++ {
			if r%2 == 0 {
				even = append(even, r)
			} else {
				odd = append(odd, r)
			}
		}
		if p == 1 {
			pw, err := NewProcWorld(1, even, nil, testCfg())
			if err != nil {
				t.Fatalf("proc p=1: %v", err)
			}
			if _, err := pw.RunEpochAt(1, false, fn); err != nil {
				t.Errorf("proc p=1: %v", err)
			}
			pw.Close()
			continue
		}
		wa, wb := twoProcWorlds(t, p, even, odd)
		if _, _, ea, eb := runBoth(wa, wb, 1, false, fn); ea != nil || eb != nil {
			t.Errorf("proc p=%d: %v / %v", p, ea, eb)
		}
	}
}

func TestExscanVector(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 13} {
		mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
			v := []int64{1, int64(c.Rank())}
			got := c.ExscanInt64s(v)
			if got[0] != int64(c.Rank()) {
				t.Errorf("p=%d rank %d elem0 %d", p, c.Rank(), got[0])
			}
			if want := int64(c.Rank() * (c.Rank() - 1) / 2); got[1] != want {
				t.Errorf("p=%d rank %d elem1 %d want %d", p, c.Rank(), got[1], want)
			}
			return nil, nil
		})
	}
}

// TestCollectiveTagsStable pins the collective tags that travel in socket
// frames: a coordinator and its workers may run binaries built from
// different trees, and a shifted tag would misroute their collectives.
func TestCollectiveTagsStable(t *testing.T) {
	var got []int
	for _, tag := range []int{tagBcast, tagReduce, tagAlltoallv, tagScan, tagBarrier, tagAbort} {
		got = append(got, tag-collTagBase)
	}
	if want := []int{1, 2, 4, 5, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("collective tags sit at collTagBase+%v, want +%v", got, want)
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5, 7, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
				send := make([][]byte, p)
				for d := 0; d < p; d++ {
					// Distinct length and content per (src,dst) pair.
					send[d] = make([]byte, c.Rank()+2*d+1)
					for i := range send[d] {
						send[d][i] = byte(c.Rank()*16 + d)
					}
				}
				got := c.Alltoallv(send)
				for s := 0; s < p; s++ {
					wantLen := s + 2*c.Rank() + 1
					if len(got[s]) != wantLen {
						t.Errorf("p=%d rank=%d from %d: len %d want %d", p, c.Rank(), s, len(got[s]), wantLen)
						continue
					}
					for _, b := range got[s] {
						if b != byte(s*16+c.Rank()) {
							t.Errorf("p=%d rank=%d from %d: byte %d", p, c.Rank(), s, b)
						}
					}
				}
				return nil, nil
			})
		})
	}
}

// TestAlltoallvSparseMatchesDense sends a pattern of nil, empty and
// non-empty payloads through AlltoallvInt32 and checks each rank receives
// exactly what a dense reference (the sender's own pattern) says.
func TestAlltoallvSparseMatchesDense(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5, 7, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
				return nil, checkSparseAlltoallv(c)
			})
		})
	}
}

// sparsePattern builds a deterministic sparse send pattern of nil, empty
// and non-empty payloads: rank r sends to r+1 (ring) and rank 0 also to
// every odd rank; the other even destinations get an empty slice, the other
// odd ones nil.
func sparsePattern(rank, p int) [][]int32 {
	send := make([][]int32, p)
	for d := 0; d < p; d += 2 {
		send[d] = []int32{}
	}
	next := (rank + 1) % p
	send[next] = append(send[next], int32(rank), int32(rank*10))
	if rank == 0 {
		for d := 1; d < p; d += 2 {
			send[d] = append(send[d], int32(100+d))
		}
	}
	return send
}

// checkSparseAlltoallv runs AlltoallvInt32 over sparsePattern and checks
// that every rank receives from each source what that source built for it.
func checkSparseAlltoallv(c *Comm) error {
	p := c.Size()
	got := c.AlltoallvInt32(sparsePattern(c.Rank(), p))
	for s := 0; s < p; s++ {
		if want := sparsePattern(s, p)[c.Rank()]; !slices.Equal(got[s], want) {
			return fmt.Errorf("rank %d from %d: got %v, want %v", c.Rank(), s, got[s], want)
		}
	}
	return nil
}

func TestAlltoallvBackToBack(t *testing.T) {
	// Two all-to-alls in a row must not cross-deliver even when ranks skew.
	p := 5
	mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
		for round := 0; round < 4; round++ {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = []byte{byte(round), byte(c.Rank())}
			}
			got := c.Alltoallv(send)
			for s := 0; s < p; s++ {
				if got[s][0] != byte(round) || got[s][1] != byte(s) {
					t.Errorf("round %d from %d: %v", round, s, got[s])
				}
			}
		}
		return nil, nil
	})
}

// wallNoise is the allowance the exact-clock tests grant the real time a
// rank spends between its primitives, which the clock now charges: the
// modeled value is the exact lower bound, the upper bound gets this much.
const wallNoise = 5e-3

func TestBarrierSynchronizesClocks(t *testing.T) {
	p := 4
	res := mustRun(t, p, modelCfg(), func(c *Comm) (any, error) {
		c.elapse(float64(c.Rank()) * 0.010) // rank r is r*10ms busy
		c.Barrier()
		return c.Time(), nil
	})
	var times []float64
	for _, r := range res {
		times = append(times, r.(float64))
	}
	for _, tm := range times {
		if math.Abs(tm-times[0]) > wallNoise {
			t.Fatalf("clocks differ after barrier: %v", times)
		}
		if tm < 0.030 || tm > 0.030+wallNoise {
			t.Fatalf("barrier time %v outside [30ms, 30ms+noise] of the max entrant", tm)
		}
	}
}

func TestVirtualTimeCausality(t *testing.T) {
	// Receiver must observe sender's elapsed time + alpha + bytes/beta.
	cfg := Config{Model: CostModel{Alpha: 1e-3, Beta: 1e6, Overhead: 0}, ComputeSlots: 2}
	res := mustRun(t, 2, cfg, func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.elapse(0.5)
			c.Send(1, 1, make([]byte, 1000)) // 1000B at 1MB/s = 1ms
			return c.Time(), nil
		}
		c.Recv(0, 1)
		return c.Time(), nil
	})
	t1 := res[1].(float64)
	want := 0.5 + 1e-3 + 1e-3 // elapse + alpha + transfer
	if t1 < want || t1 > want+wallNoise {
		t.Fatalf("receiver clock %v, want [%v, %v]", t1, want, want+wallNoise)
	}
}

// TestComputeIsTimeBetweenMessages: local work carries no annotation — the
// stretch between two primitives is what the clock and CompTime are charged,
// and none of it is communication. A rank that panics gives its slot back.
func TestComputeIsTimeBetweenMessages(t *testing.T) {
	const nap = 20 * time.Millisecond
	res := mustRun(t, 2, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Send(1, 1, nil)
			time.Sleep(nap)
			c.Send(1, 2, nil)
			return []float64{c.Time(), c.Stats().CompTime, c.Stats().CommTime}, nil
		}
		c.Recv(0, 1)
		c.Recv(0, 2)
		return nil, nil
	})
	got := res[0].([]float64)
	for i, name := range []string{"Time", "CompTime"} {
		if got[i] < nap.Seconds() || got[i] >= 3*nap.Seconds() {
			t.Errorf("%s = %v after a %v sleep between two sends, want [20ms, 60ms)", name, got[i], nap)
		}
	}
	if got[2] != 0 {
		t.Errorf("CommTime = %v under the zero model: the sleep leaked into communication", got[2])
	}

	w := NewWorld(3, Config{ComputeSlots: 2})
	defer w.Close()
	_, err := w.Run(func(c *Comm) (any, error) {
		c.Barrier()
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil, nil
	})
	var rp *RankPanicError
	if !errors.As(err, &rp) {
		t.Fatalf("want a RankPanicError, got %v", err)
	}
	if len(w.slots) != cap(w.slots) {
		t.Fatalf("%d of %d slots home after a rank panicked", len(w.slots), cap(w.slots))
	}
}

func TestStatsCountBytes(t *testing.T) {
	res := mustRun(t, 2, modelCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
			c.Send(1, 2, make([]byte, 28))
		} else {
			c.Recv(0, 1)
			c.Recv(0, 2)
		}
		return c.Stats(), nil
	})
	s0 := res[0].(Stats)
	if s0.BytesSent != 128 || s0.MsgsSent != 2 {
		t.Fatalf("sender stats: %+v", s0)
	}
	s1 := res[1].(Stats)
	if s1.CommTime <= 0 {
		t.Fatalf("receiver comm time: %+v", s1)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	_, err := Run(3, testCfg(), func(c *Comm) (any, error) {
		if c.Rank() == 1 {
			return nil, errTest
		}
		return nil, nil
	})
	if err != errTest {
		t.Fatalf("got %v", err)
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestSquareSide(t *testing.T) {
	cases := map[int]int{1: 1, 4: 2, 9: 3, 16: 4, 169: 13, 2: -1, 3: -1, 8: -1, 12: -1}
	for p, want := range cases {
		if got := SquareSide(p); got != want {
			t.Errorf("SquareSide(%d)=%d want %d", p, got, want)
		}
	}
}

// squareGrid views c as the √p × √p grid; an error if p is not a square.
func squareGrid(c *Comm) (*Grid, error) {
	q := SquareSide(c.Size())
	return NewGrid(c, q, q)
}

func TestGridGeometry(t *testing.T) {
	mustRun(t, 9, testCfg(), func(c *Comm) (any, error) {
		g, err := squareGrid(c)
		if err != nil {
			return nil, err
		}
		if g.Rows() != 3 || g.Cols() != 3 {
			t.Errorf("shape %dx%d", g.Rows(), g.Cols())
		}
		if g.RankAt(g.Row(), g.Col()) != c.Rank() {
			t.Errorf("rankAt roundtrip failed")
		}
		if g.RankAt(-1, -1) != g.RankAt(2, 2) {
			t.Errorf("wraparound broken")
		}
		return nil, nil
	})
}

func TestGridNotSquare(t *testing.T) {
	mustRun(t, 6, testCfg(), func(c *Comm) (any, error) {
		if _, err := squareGrid(c); err == nil {
			t.Error("expected error for non-square world")
		}
		return nil, nil
	})
}

func TestGridShifts(t *testing.T) {
	// Each rank sends its own id left by 1; must receive right neighbor's.
	mustRun(t, 9, testCfg(), func(c *Comm) (any, error) {
		g, _ := squareGrid(c)
		got := g.ShiftRowLeft([]byte{byte(c.Rank())}, 1)
		wantSrc := g.RankAt(g.Row(), g.Col()+1)
		if got[0] != byte(wantSrc) {
			t.Errorf("rank %d row shift got %d want %d", c.Rank(), got[0], wantSrc)
		}
		got = g.ShiftColUp([]byte{byte(c.Rank())}, 2)
		wantSrc = g.RankAt(g.Row()+2, g.Col())
		if got[0] != byte(wantSrc) {
			t.Errorf("rank %d col shift got %d want %d", c.Rank(), got[0], wantSrc)
		}
		// Distance 0 and q wrap to identity.
		self := g.ShiftRowLeft([]byte{byte(c.Rank())}, 3)
		if self[0] != byte(c.Rank()) {
			t.Errorf("shift by q not identity")
		}
		return nil, nil
	})
}

func TestCannonAlignmentPattern(t *testing.T) {
	// After the alignment shifts, P_{x,y} must hold U_{x,(x+y)%q} and
	// L_{(x+y)%q,y}; after one more unit shift the z index advances by 1.
	q := 4
	mustRun(t, q*q, testCfg(), func(c *Comm) (any, error) {
		g, _ := squareGrid(c)
		x, y := g.Row(), g.Col()
		ublock := []byte{byte(x), byte(y)} // (owner row, owner col)
		lblock := []byte{byte(x), byte(y)}
		ublock = g.ShiftRowLeft(ublock, x)
		lblock = g.ShiftColUp(lblock, y)
		for z := 0; z < q; z++ {
			wantC := (x + y + z) % q
			if int(ublock[0]) != x || int(ublock[1]) != wantC {
				t.Errorf("step %d at (%d,%d): U block (%d,%d), want (%d,%d)",
					z, x, y, ublock[0], ublock[1], x, wantC)
			}
			if int(lblock[0]) != wantC || int(lblock[1]) != y {
				t.Errorf("step %d at (%d,%d): L block (%d,%d), want (%d,%d)",
					z, x, y, lblock[0], lblock[1], wantC, y)
			}
			if z < q-1 {
				ublock = g.ShiftRowLeft(ublock, 1)
				lblock = g.ShiftColUp(lblock, 1)
			}
		}
		return nil, nil
	})
}

func TestBytesRoundtrip(t *testing.T) {
	i32 := []int32{0, -5, 1 << 30, 7}
	if got := BytesToInt32s(Int32sAsBytes(i32)); len(got) != 4 || got[1] != -5 {
		t.Errorf("int32 roundtrip: %v", got)
	}
	i64 := []int64{1 << 62, -9}
	if got := BytesToInt64s(Int64sToBytes(i64)); got[0] != 1<<62 || got[1] != -9 {
		t.Errorf("int64 roundtrip: %v", got)
	}
	f64 := []float64{math.Pi, math.Inf(1)}
	if got := BytesToFloat64s(Float64sToBytes(f64)); got[0] != math.Pi || !math.IsInf(got[1], 1) {
		t.Errorf("float64 roundtrip: %v", got)
	}
	// Misaligned fallback path.
	raw := make([]byte, 9)
	copy(raw[1:], Int32sAsBytes([]int32{77, -3}))
	got := BytesToInt32s(raw[1:])
	if got[0] != 77 || got[1] != -3 {
		t.Errorf("misaligned decode: %v", got)
	}
}

func TestBcastLargePayload(t *testing.T) {
	p := 8
	const n = 1 << 18
	mustRun(t, p, testCfg(), func(c *Comm) (any, error) {
		var data []byte
		if c.Rank() == 3 {
			data = make([]byte, n)
			for i := range data {
				data[i] = byte(i)
			}
		}
		got := c.Bcast(3, data)
		if len(got) != n || got[12345] != byte(12345%256) {
			t.Errorf("rank %d large bcast corrupt", c.Rank())
		}
		return nil, nil
	})
}
