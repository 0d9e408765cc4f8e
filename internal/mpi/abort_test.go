package mpi

import (
	"errors"
	"testing"
	"time"
)

// TestFailedRankAbortsEpoch: a rank that panics or returns an error while a
// peer waits on it — in Recv, in a Send on a full mailbox, or in Barrier —
// fails the epoch on every world instead of hanging it, Run reports
// the failed rank's error rather than the peer's unwinding, and the world
// runs its next epoch normally. The failing rank is rank 1, so the unwound
// peer, rank 0, comes first in rank order. On the split worlds the peer
// lives in another process, which learns of the failure from an abort
// frame — also when that frame queues on the link behind frames for a full
// mailbox whose rank waits on the failed one (the last case).
func TestFailedRankAbortsEpoch(t *testing.T) {
	watchdog(t, 60*time.Second)
	const pairCap = 4
	cfg := Config{ComputeSlots: 2, PairCap: pairCap}
	const failing = 1
	boom := errors.New("rank gives up")
	fails := []struct {
		name  string
		fail  func() (any, error)
		check func(err error) bool
	}{
		{"panic", func() (any, error) { panic(boom) }, func(err error) bool {
			var pe *RankPanicError
			return errors.As(err, &pe) && pe.Value == boom
		}},
		{"error", func() (any, error) { return nil, boom }, func(err error) bool { return err == boom }},
	}
	waits := []struct {
		name string
		wait func(c *Comm, peer int)
		proc bool // runs on a proc world too (its Barrier is message passing)
	}{
		{"recv", func(c *Comm, peer int) { c.Recv(peer, 7) }, true},
		{"send", func(c *Comm, peer int) {
			for i := 0; i <= pairCap; i++ {
				c.Send(peer, 7, []byte{byte(i)})
			}
		}, true},
		{"barrier", func(c *Comm, _ int) { c.Barrier() }, false},
	}
	// procRun runs each epoch on both endpoints of a 2-process world and
	// returns the root cause: an endpoint's error that is not an unwinding.
	procRun := func(t *testing.T, p int, localA, localB []int) func(RankFunc) error {
		wa, wb := twoProcWorlds(t, p, localA, localB)
		id := 0
		return func(fn RankFunc) error {
			id++
			_, _, ea, eb := runBoth(wa, wb, id, false, fn)
			if ea == nil || errors.Is(ea, ErrAborted) && eb != nil {
				return eb
			}
			return ea
		}
	}
	// worlds each run one epoch of body and return its error. In the proc
	// world ranks 0 and 1 share a process and rank 2 lives in the other; the
	// split worlds put ranks 0 and 1 in different processes, each way round.
	worlds := []struct {
		name string
		proc bool
		make func(t *testing.T) func(RankFunc) error
	}{
		{"channel", false, func(t *testing.T) func(RankFunc) error {
			w := NewWorld(2, cfg)
			t.Cleanup(func() { w.Close() })
			return func(fn RankFunc) error { _, err := w.Run(fn); return err }
		}},
		{"loopback", false, func(t *testing.T) func(RankFunc) error {
			w, err := NewTCPWorld(2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			return func(fn RankFunc) error { _, err := w.Run(fn); return err }
		}},
		{"proc", true, func(t *testing.T) func(RankFunc) error { return procRun(t, 3, []int{0, 1}, []int{2}) }},
		{"split", true, func(t *testing.T) func(RankFunc) error { return procRun(t, 2, []int{0}, []int{1}) }},
		{"split_reversed", true, func(t *testing.T) func(RankFunc) error { return procRun(t, 2, []int{1}, []int{0}) }},
	}
	for _, wd := range worlds {
		for _, w := range waits {
			if wd.proc && !w.proc {
				continue
			}
			for _, f := range fails {
				t.Run(wd.name+"/"+f.name+"_before_"+w.name, func(t *testing.T) {
					run := wd.make(t)
					body := func(c *Comm) (any, error) {
						switch c.Rank() {
						case failing:
							time.Sleep(20 * time.Millisecond) // let the peer block first
							return f.fail()
						case 0:
							w.wait(c, failing)
						}
						return nil, nil
					}
					if err := run(body); !f.check(err) {
						t.Fatalf("epoch error %v, want rank %d's %s", err, failing, f.name)
					}
					plain := func(c *Comm) (any, error) {
						if c.Rank() == failing {
							c.Send(0, 8, []byte("next"))
						} else if c.Rank() == 0 {
							if got := string(c.Recv(failing, 8)); got != "next" {
								return nil, errors.New("next epoch got " + got)
							}
						}
						return nil, nil
					}
					if err := run(plain); err != nil {
						t.Fatalf("next epoch: %v", err)
					}
				})
			}
		}
	}
	// Ranks {0,1} | {2}: rank 1 floods rank 2, which waits on rank 0, past
	// its mailbox, so the abort frame of rank 0 follows 40 frames of rank 1
	// on the one link between the processes.
	t.Run("proc/error_behind_a_full_mailbox", func(t *testing.T) {
		wa, wb := twoProcWorlds(t, 3, []int{0, 1}, []int{2})
		body := func(c *Comm) (any, error) {
			switch c.Rank() {
			case 0:
				time.Sleep(20 * time.Millisecond) // let the flood fill the mailbox
				return nil, boom
			case 1:
				for i := 0; i < 40; i++ {
					c.Send(2, 9, []byte{byte(i)})
				}
			case 2:
				c.Recv(0, 7)
			}
			return nil, nil
		}
		_, _, ea, eb := runBoth(wa, wb, 1, false, body)
		if ea != boom || !errors.Is(eb, ErrAborted) {
			t.Fatalf("epoch errors %v / %v, want rank 0's and an unwinding", ea, eb)
		}
		// Both Close calls must return; the second world may report the EOF
		// of the link the first one closed.
		if err := wa.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wb.Close()
	})
}
