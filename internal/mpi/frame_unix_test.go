//go:build unix

package mpi

import (
	"errors"
	"strings"
	"syscall"
	"testing"
)

// oversizedPayload maps maxFrameBytes+1 bytes of address space without
// committing a page of it: a sender that refuses the length never touches
// the bytes, one that does not faults.
func oversizedPayload(t *testing.T) []byte {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, maxFrameBytes+1, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("cannot reserve address space: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(b) })
	return b
}

// The length field is a uint32: a sender must refuse a payload it cannot
// announce truthfully, naming the size, instead of wrapping it.
func TestSendersRefuseOversizedPayload(t *testing.T) {
	big := oversizedPayload(t)
	send := func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			c.SendOwn(1, 4, big)
		}
		return nil, nil
	}

	wa, _ := twoProcWorlds(t, 2, []int{0}, []int{1})
	_, err := wa.RunEpochAt(1, false, send)
	if !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), "1073741825 bytes") {
		t.Errorf("proc send of an oversized payload: want ErrPeerLost naming the size, got %v", err)
	}

	w, err := NewTCPWorld(2, Config{ComputeSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() // reports the refused send: the world is down
	_, err = w.Run(send)
	if !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), "1073741825 bytes") {
		t.Errorf("tcp send of an oversized payload: want ErrPeerLost naming the size, got %v", err)
	}
}
