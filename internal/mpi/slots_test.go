package mpi

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// watchdog aborts the test binary with every goroutine's stack if the test
// is still running after d — the shape a slot leak, or a rank blocked while
// holding a slot, takes; it would otherwise sit out the go test timeout.
func watchdog(t *testing.T, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 4<<20)
		panic(fmt.Sprintf("%s still running after %v:\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	})
	t.Cleanup(func() { timer.Stop() })
}

// slotGauge counts the ranks of one process that are between messages: up
// after every primitive returns, down before the next begins. The ranks it
// counts all hold a slot, so it can never exceed the slot count.
type slotGauge struct {
	running, peak atomic.Int32
}

func (g *slotGauge) enter() {
	n := g.running.Add(1)
	for {
		old := g.peak.Load()
		if n <= old || g.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

func (g *slotGauge) leave() { g.running.Add(-1) }

// slotBody alternates short busy loops with the three blocking shapes — a
// ring SendRecv, a Barrier, a reduction — reporting to the gauge of the
// process hosting the rank.
func slotBody(gaugeOf func(rank int) *slotGauge) RankFunc {
	return func(c *Comm) (any, error) {
		g := gaugeOf(c.Rank())
		p := c.Size()
		next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
		busy := func() {
			for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
			}
		}
		g.enter()
		defer g.leave()
		var sum int64
		for i := 0; i < 20; i++ {
			busy()
			g.leave()
			c.SendRecv(next, 1, []byte{byte(i)}, prev)
			g.enter()
			busy()
			g.leave()
			c.Barrier()
			g.enter()
			busy()
			g.leave()
			sum += c.AllreduceInt64(1, OpSum)
			g.enter()
		}
		return sum, nil
	}
}

func checkSlotRun(t *testing.T, name string, g *slotGauge, slots int, res []any, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s, %d slots: %v", name, slots, err)
	}
	for r, v := range res {
		if v != nil && v.(int64) != 20*4 {
			t.Errorf("%s, %d slots: rank %d reduced %v, want %d", name, slots, r, v, 20*4)
		}
	}
	if peak := int(g.peak.Load()); peak > slots {
		t.Errorf("%s: %d ranks ran between messages at once over %d slots", name, peak, slots)
	}
}

// TestSlotsBoundRunningRanks: on every transport, at most ComputeSlots ranks
// of a process are between messages at any moment, and the discipline never
// deadlocks — every blocking primitive gives its slot back and takes one
// again before it returns.
func TestSlotsBoundRunningRanks(t *testing.T) {
	watchdog(t, 60*time.Second)
	for _, slots := range []int{1, 2} {
		cfg := Config{ComputeSlots: slots}

		var g slotGauge
		res, err := Run(4, cfg, slotBody(func(int) *slotGauge { return &g }))
		checkSlotRun(t, "channel", &g, slots, res, err)

		w, err := NewTCPWorld(4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gt slotGauge
		res, err = w.Run(slotBody(func(int) *slotGauge { return &gt }))
		w.Close()
		checkSlotRun(t, "tcp", &gt, slots, res, err)

		ca, cb := net.Pipe()
		wa, err := NewProcWorld(4, []int{0, 1}, []ProcLink{{Conn: ca, Ranks: []int{2, 3}}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := NewProcWorld(4, []int{2, 3}, []ProcLink{{Conn: cb, Ranks: []int{0, 1}}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ga, gb slotGauge // one per process: each has its own slots
		ra, rb, ea, eb := runBoth(wa, wb, 1, false, slotBody(func(rank int) *slotGauge {
			if rank < 2 {
				return &ga
			}
			return &gb
		}))
		wa.Close()
		wb.Close()
		checkSlotRun(t, "proc A", &ga, slots, ra, ea)
		checkSlotRun(t, "proc B", &gb, slots, rb, eb)
	}
}
