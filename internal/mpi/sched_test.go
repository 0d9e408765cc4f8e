package mpi

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Epoch-scheduler tests: RunRead epochs overlap each other but never a Run
// epoch, and each epoch's messages stay inside its own comm namespace.

// TestConcurrentReadEpochsIsolated overlaps many read epochs that all
// exchange ring tokens with the SAME tag. If epochs shared mailboxes, a
// rank would receive another epoch's token; per-epoch namespaces make every
// epoch see exactly its own value.
func TestConcurrentReadEpochsIsolated(t *testing.T) {
	w := NewWorld(4, testCfg())
	defer w.Close()
	const epochs = 8
	var wg sync.WaitGroup
	errCh := make(chan error, epochs)
	for e := 0; e < epochs; e++ {
		wg.Add(1)
		go func(token byte) {
			defer wg.Done()
			_, err := w.RunRead(func(c *Comm) (any, error) {
				next := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() + c.Size() - 1) % c.Size()
				for round := 0; round < 5; round++ {
					got := c.SendRecv(next, 7, []byte{token, byte(c.Rank())}, prev)
					if got[0] != token || int(got[1]) != prev {
						t.Errorf("epoch token %d rank %d round %d: got (%d, %d), want (%d, %d)",
							token, c.Rank(), round, got[0], got[1], token, prev)
					}
					c.Barrier()
				}
				return nil, nil
			})
			if err != nil {
				errCh <- err
			}
		}(byte(e + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if w.epochs != epochs {
		t.Errorf("%d epochs, want %d", w.epochs, epochs)
	}
}

// TestWriteEpochExclusive tracks a gauge of in-flight epochs: a Run epoch
// must observe itself alone, while RunRead epochs are allowed (and, with a
// rendezvous, required) to overlap.
func TestWriteEpochExclusive(t *testing.T) {
	w := NewWorld(2, testCfg())
	defer w.Close()
	var inFlight, maxSeen atomic.Int64
	body := func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			n := inFlight.Add(1)
			for {
				cur := maxSeen.Load()
				if n <= cur || maxSeen.CompareAndSwap(cur, n) {
					break
				}
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			inFlight.Add(-1)
		}
		return nil, nil
	}

	// Writers interleaved with readers: during any Run epoch the gauge
	// must be exactly 1.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := w.RunRead(body); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			_, err := w.Run(func(c *Comm) (any, error) {
				if c.Rank() == 0 && inFlight.Load() != 0 {
					t.Errorf("write epoch overlapped %d other epochs", inFlight.Load())
				}
				return body(c)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Rendezvous: two read epochs must be able to be in flight at once
	// (they would deadlock on a serialized world).
	barrier := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := w.RunRead(func(c *Comm) (any, error) {
				if c.Rank() == 0 {
					if i == 0 {
						barrier <- struct{}{}
					} else {
						<-barrier
					}
				}
				c.Barrier()
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestConcurrentReadEpochsTCP is the namespace-isolation test over the TCP
// wire: frames of overlapping epochs interleave on the shared connections
// and must still land in their own epoch's mailboxes.
func TestConcurrentReadEpochsTCP(t *testing.T) {
	w, err := NewTCPWorld(3, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const epochs = 6
	var wg sync.WaitGroup
	for e := 0; e < epochs; e++ {
		wg.Add(1)
		go func(add int64) {
			defer wg.Done()
			_, err := w.RunRead(func(c *Comm) (any, error) {
				got := c.AllreduceInt64(int64(c.Rank())+add, OpSum)
				if want := int64(0+1+2) + 3*add; got != want {
					t.Errorf("epoch +%d rank %d: allreduce %d, want %d", add, c.Rank(), got, want)
				}
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(int64(e * 100))
	}
	wg.Wait()
}

// TestReadEpochsAfterWriteSeeNewState drives the reader/writer handoff:
// resident state mutated by a Run epoch must be visible to subsequent
// RunRead epochs.
func TestReadEpochsAfterWriteSeeNewState(t *testing.T) {
	w := NewWorld(2, testCfg())
	defer w.Close()
	state := make([]int64, 2)
	for round := 1; round <= 3; round++ {
		if _, err := w.Run(func(c *Comm) (any, error) {
			state[c.Rank()]++
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := w.RunRead(func(c *Comm) (any, error) {
					if got := c.AllreduceInt64(state[c.Rank()], OpSum); got != int64(2*round) {
						t.Errorf("round %d: readers saw %d, want %d", round, got, 2*round)
					}
					return nil, nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestCloseWaitsForReadEpochs: Close must wait out in-flight read epochs
// rather than tearing the transport from under them.
func TestCloseWaitsForReadEpochs(t *testing.T) {
	w := NewWorld(2, testCfg())
	started := make(chan struct{})
	release := make(chan struct{})
	var done atomic.Bool
	go func() {
		_, err := w.RunRead(func(c *Comm) (any, error) {
			if c.Rank() == 0 {
				close(started)
				<-release
			}
			c.Barrier()
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		done.Store(true)
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a read epoch was still in flight")
	default:
	}
	close(release)
	<-closed
	if !done.Load() {
		t.Error("epoch did not complete before Close returned")
	}
}
