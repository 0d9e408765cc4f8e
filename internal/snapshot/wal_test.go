package snapshot

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenSegment is a WAL segment of records (1, "alpha"), (2, "") and
// (3, "gamma-longer-payload") as segments were written before the record
// codec was shared with replication frames. The bytes must never change:
// old segments must still replay.
const goldenSegment = "4c57435401000000000000000000000045524354050000000100000000000000616c70686135c422b145524354000000000200000000000000c448501e4552435414000000030000000000000067616d6d612d6c6f6e6765722d7061796c6f616400ac3687"

var goldenRecords = []Record{{1, []byte("alpha")}, {2, []byte{}}, {3, []byte("gamma-longer-payload")}}

func writeSegment(t testing.TB, dir string, seg []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, walFileName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestWALGoldenBytes: Append writes the golden segment byte for byte, and
// Replay and ReadAfter read the golden segment back.
func TestWALGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRecords {
		if err := w.Append(r.Seq, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(filepath.Join(dir, walFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, golden) {
		t.Fatalf("segment bytes changed:\n got %x\nwant %x", raw, golden)
	}

	dir = t.TempDir()
	writeSegment(t, dir, golden)
	var replayed []Record
	if _, _, _, err := Replay(dir, 0, func(seq uint64, p []byte) error {
		replayed = append(replayed, Record{seq, bytes.Clone(p)})
		return nil
	}); err != nil || !sameRecords(replayed, goldenRecords) {
		t.Fatalf("Replay of the golden segment: %v, err %v", replayed, err)
	}
	if recs, gone, err := ReadAfter(dir, 0, 0, 0); err != nil || gone || !sameRecords(recs, goldenRecords) {
		t.Fatalf("ReadAfter of the golden segment: %v, gone %v, err %v", recs, gone, err)
	}
}

// allocatedBy reports the bytes fn allocates, the least of five runs: other
// goroutines can only add to the process-wide count.
func allocatedBy(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestWALReadAllocationBudget: a read allocates for the records it delivers,
// not for the segment. The segment has the shape of a replica's log between
// rotations: 186 records of 6,148 B, the WAL payload of a 512-update batch.
// A ReadAfter at the tail and a Replay of the whole segment each stay under
// 64 KB; reading the whole segment into memory costs 1.1 MB.
func TestWALReadAllocationBudget(t *testing.T) {
	const records, payloadLen, budget = 186, 6148, 64 << 10
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xa5}, payloadLen)
	for seq := uint64(1); seq <= records; seq++ {
		if err := w.Append(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	var tailErr, replayErr error
	var delivered int
	tail := allocatedBy(func() {
		var recs []Record
		recs, _, tailErr = ReadAfter(dir, records-1, 0, 0)
		delivered = len(recs)
	})
	replay := allocatedBy(func() {
		_, _, _, replayErr = Replay(dir, 0, func(uint64, []byte) error { return nil })
	})
	if tailErr != nil || replayErr != nil || delivered != 1 {
		t.Fatalf("ReadAfter delivered %d records (err %v), Replay err %v", delivered, tailErr, replayErr)
	}
	t.Logf("ReadAfter at the tail allocated %d B, Replay %d B, budget %d B", tail, replay, budget)
	if tail > budget || replay > budget {
		t.Fatalf("ReadAfter at the tail allocated %d B, Replay %d B, budget %d B", tail, replay, budget)
	}
}

// FuzzWALSegment: any bytes as the one segment of a log. Replay and ReadAfter
// never panic and fail only with ErrCorrupt, and when Replay accepts the
// segment, ReadAfter over the same bytes returns exactly the records Replay
// delivered.
func FuzzWALSegment(f *testing.F) {
	golden, _ := hex.DecodeString(goldenSegment)
	f.Add(golden)
	f.Add(golden[:len(golden)-5])                             // torn tail
	f.Add(append(bytes.Clone(golden), golden[walHdrLen:]...)) // seq gap
	flipped := bytes.Clone(golden)
	flipped[walHdrLen+recHdrLen] ^= 1 // damage with valid records beyond it
	f.Add(flipped)
	f.Add(golden[:walHdrLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, seg []byte) {
		replayDir, tailDir := t.TempDir(), t.TempDir()
		writeSegment(t, replayDir, seg)
		writeSegment(t, tailDir, seg)
		var replayed []Record
		_, _, _, rerr := Replay(replayDir, 0, func(seq uint64, p []byte) error {
			replayed = append(replayed, Record{seq, bytes.Clone(p)})
			return nil
		})
		recs, gone, terr := ReadAfter(tailDir, 0, 0, 0)
		for _, err := range []error{rerr, terr} {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
		}
		if gone {
			t.Fatal("ReadAfter from the segment's base reported gone")
		}
		if rerr == nil && (terr != nil || !sameRecords(recs, replayed)) {
			t.Fatalf("Replay delivered %d records, ReadAfter %d (err %v)", len(replayed), len(recs), terr)
		}
	})
}
