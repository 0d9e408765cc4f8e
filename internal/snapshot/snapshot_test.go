package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func writeSnap(t *testing.T, dir string, seq uint64, ranks int, payload func(rank int) []byte) Manifest {
	t.Helper()
	w, err := NewWriter(dir, seq)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if err := w.WriteRank(r, payload(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(Manifest{Ranks: ranks, Triangles: int64(seq), BaseM: 100}); err != nil {
		t.Fatal(err)
	}
	m, err := Load(dir, seq)
	if err != nil {
		t.Fatal(err)
	}
	return *m
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := func(r int) []byte { return bytes.Repeat([]byte{byte(r + 1)}, 64+r) }
	writeSnap(t, dir, 3, 4, payload)

	m, err := LoadNewest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.AppliedSeq != 3 || m.Ranks != 4 || m.Triangles != 3 {
		t.Fatalf("manifest %+v", m)
	}
	for r := 0; r < 4; r++ {
		got, err := ReadRank(dir, m, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(r)) {
			t.Fatalf("rank %d payload mismatch", r)
		}
	}
}

func TestLoadNewestPicksNewestValid(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 1, 2, func(r int) []byte { return []byte{1, byte(r)} })
	writeSnap(t, dir, 5, 2, func(r int) []byte { return []byte{5, byte(r)} })

	m, err := LoadNewest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.AppliedSeq != 5 {
		t.Fatalf("LoadNewest picked seq %d, want 5", m.AppliedSeq)
	}

	// Break the newest manifest: LoadNewest must fall back to seq 1.
	if err := os.Remove(filepath.Join(dir, snapDirName(5), manifestName)); err != nil {
		t.Fatal(err)
	}
	m, err = LoadNewest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.AppliedSeq != 1 {
		t.Fatalf("fallback picked seq %d, want 1", m.AppliedSeq)
	}
}

func TestCorruptChecksumRejected(t *testing.T) {
	dir := t.TempDir()
	m := writeSnap(t, dir, 0, 1, func(int) []byte { return bytes.Repeat([]byte{7}, 128) })
	path := filepath.Join(dir, snapDirName(0), m.RankFiles[0].Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0xFF // flip one payload byte; size stays pinned
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, 0)
	if err != nil {
		t.Fatal(err) // manifest itself is fine
	}
	if _, err := ReadRank(dir, loaded, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadRank on corrupt blob: err=%v, want ErrCorrupt", err)
	}
}

func TestUnknownFormatVersionRejected(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, 1, func(int) []byte { return []byte{1, 2, 3} })
	path := filepath.Join(dir, snapDirName(0), manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["format_version"] = FormatVersion + 99
	enc, _ := json.Marshal(m)
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load with future format version: err=%v, want ErrCorrupt", err)
	}
}

func TestTruncatedBlobRejected(t *testing.T) {
	dir := t.TempDir()
	m := writeSnap(t, dir, 0, 1, func(int) []byte { return bytes.Repeat([]byte{9}, 256) })
	path := filepath.Join(dir, snapDirName(0), m.RankFiles[0].Name)
	if err := os.Truncate(path, m.RankFiles[0].Size/2); err != nil {
		t.Fatal(err)
	}
	// The size pin catches it at manifest validation already.
	if _, err := Load(dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load with truncated blob: err=%v, want ErrCorrupt", err)
	}
}

func TestTmpDirIgnored(t *testing.T) {
	dir := t.TempDir()
	// A crashed snapshot attempt: temp dir with no manifest.
	if err := os.MkdirAll(filepath.Join(dir, snapDirName(9)+tmpSuffix), 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := LoadNewest(dir)
	if err != nil || m != nil {
		t.Fatalf("LoadNewest over temp-only dir: m=%v err=%v, want nil/nil", m, err)
	}
}

func appendRecords(t *testing.T, w *WAL, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		payload := []byte(fmt.Sprintf("batch-%d", seq))
		if err := w.Append(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, dir string, after uint64) (seqs []uint64, last uint64) {
	t.Helper()
	last, _, _, err := Replay(dir, after, func(seq uint64, payload []byte) error {
		if want := fmt.Sprintf("batch-%d", seq); string(payload) != want {
			return fmt.Errorf("payload %q, want %q", payload, want)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, last
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 1, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, last := replayAll(t, dir, 0)
	if last != 5 || len(seqs) != 5 {
		t.Fatalf("replay: last=%d seqs=%v", last, seqs)
	}
	// A snapshot at 3 replays only the tail.
	seqs, last = replayAll(t, dir, 3)
	if last != 5 || len(seqs) != 2 || seqs[0] != 4 {
		t.Fatalf("tail replay: last=%d seqs=%v", last, seqs)
	}
}

func TestWALRotationAndResume(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 1, 3)
	if err := w.Rotate(3); err != nil { // snapshot at 3
		t.Fatal(err)
	}
	appendRecords(t, w, 4, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen the newest segment and keep appending, as OpenCluster does.
	last, newestBase, have, err := Replay(dir, 3, func(uint64, []byte) error { return nil })
	if err != nil || !have || newestBase != 3 || last != 6 {
		t.Fatalf("replay: last=%d base=%d have=%v err=%v", last, newestBase, have, err)
	}
	w, err = CreateWAL(dir, newestBase, last, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 7, 8)
	w.Close()
	seqs, last := replayAll(t, dir, 3)
	if last != 8 || len(seqs) != 5 {
		t.Fatalf("post-resume replay: last=%d seqs=%v", last, seqs)
	}
}

// TestWALTornTailTruncated simulates a crash mid-append at every possible
// byte boundary of the final record: replay must recover exactly the
// complete prefix and truncate the torn bytes.
func TestWALTornTailTruncated(t *testing.T) {
	ref := t.TempDir()
	w, err := CreateWAL(ref, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 1, 3)
	w.Close()
	full, err := os.ReadFile(filepath.Join(ref, walFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	// Find where record 3 starts: replay records 1..2 into a fresh file and
	// measure. Simpler: scan for sizes — all records here have equal size.
	recLen := (len(full) - walHdrLen) / 3

	for cut := len(full) - recLen + 1; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		seqs, last := replayAll(t, dir, 0)
		if last != 2 || len(seqs) != 2 {
			t.Fatalf("cut at %d: last=%d seqs=%v, want prefix 1..2", cut, last, seqs)
		}
		// The torn bytes must be gone so appends can resume cleanly.
		st, err := os.Stat(filepath.Join(dir, walFileName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(len(full)-recLen) {
			t.Fatalf("cut at %d: file size %d after truncation, want %d", cut, st.Size(), len(full)-recLen)
		}
	}
}

// TestWALCorruptTailBitFlip flips one byte inside the final record: the CRC
// must catch it and replay must fall back to the complete prefix.
func TestWALCorruptTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 1, 3)
	w.Close()
	path := filepath.Join(dir, walFileName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, last := replayAll(t, dir, 0)
	if last != 2 || len(seqs) != 2 {
		t.Fatalf("after bit flip: last=%d seqs=%v, want prefix 1..2", last, seqs)
	}
}

// TestWALMidSegmentCorruptionRejected: damage to a record FOLLOWED by
// intact records is bit rot, not a torn tail — truncating would silently
// drop acknowledged batches, so replay must refuse with ErrCorrupt.
func TestWALMidSegmentCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 1, 3)
	w.Close()
	path := filepath.Join(dir, walFileName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := (len(raw) - walHdrLen) / 3
	raw[walHdrLen+recLen+recHdrLen] ^= 0x01 // payload byte of record 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Replay(dir, 0, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over mid-segment damage: err=%v, want ErrCorrupt", err)
	}
	// The intact records after the damage must still be on disk (no
	// truncation) for manual recovery.
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(raw)) {
		t.Fatalf("file was truncated despite refusal: %v", err)
	}
}

// TestWALSequenceGapRejected: a missing record in the middle is data loss,
// not a torn tail — replay must refuse with ErrCorrupt.
func TestWALSequenceGapRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 1, 1)
	w.seq = 2 // forge a gap: next append claims seq 3
	appendRecords(t, w, 3, 3)
	w.Close()
	_, _, _, err = Replay(dir, 0, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over seq gap: err=%v, want ErrCorrupt", err)
	}
}

func TestPruneRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	writeSnap(t, dir, 0, 1, func(int) []byte { return []byte{0} })
	appendRecords(t, w, 1, 2)
	writeSnap(t, dir, 2, 1, func(int) []byte { return []byte{2} })
	if err := w.Rotate(2); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 3, 4)
	writeSnap(t, dir, 4, 1, func(int) []byte { return []byte{4} })
	if err := w.Rotate(4); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Every snapshot here is a base, so keeping two bases keeps two snapshots.
	if err := PruneChains(dir, 2); err != nil {
		t.Fatal(err)
	}
	seqs, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 4 {
		t.Fatalf("retained snapshots %v, want [2 4]", seqs)
	}
	// Segment wal-0 is superseded by snapshot 2; wal-2 and wal-4 survive.
	if _, err := os.Stat(filepath.Join(dir, walFileName(0))); !os.IsNotExist(err) {
		t.Fatalf("wal-0 should be pruned, stat err=%v", err)
	}
	for _, base := range []uint64{2, 4} {
		if _, err := os.Stat(filepath.Join(dir, walFileName(base))); err != nil {
			t.Fatalf("wal-%d should survive: %v", base, err)
		}
	}
	// Replay from the retained fallback snapshot still works.
	seqsGot, last := replayAll(t, dir, 2)
	if last != 4 || len(seqsGot) != 2 {
		t.Fatalf("replay after prune: last=%d seqs=%v", last, seqsGot)
	}
}

// TestWALTornRotationHeader: a crash between segment creation and its
// header sync leaves a too-short newest segment — a rotation artifact, not
// corruption. Replay must remove it and recovery must proceed; a reopened
// WAL recreates the segment at the same base.
func TestWALTornRotationHeader(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, w, 1, 3)
	if err := w.Rotate(3); err != nil {
		t.Fatal(err)
	}
	w.Close()
	for _, size := range []int64{0, 7, walHdrLen - 1} {
		if err := os.WriteFile(filepath.Join(dir, walFileName(3)), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		last, newestBase, have, err := Replay(dir, 0, func(uint64, []byte) error { return nil })
		if err != nil || !have || last != 3 || newestBase != 3 {
			t.Fatalf("size %d: last=%d base=%d have=%v err=%v", size, last, newestBase, have, err)
		}
		if _, err := os.Stat(filepath.Join(dir, walFileName(3))); !os.IsNotExist(err) {
			t.Fatalf("size %d: rotation artifact not removed (stat err=%v)", size, err)
		}
		// Reopening at the same base recreates a proper segment.
		w, err := CreateWAL(dir, newestBase, last, false)
		if err != nil {
			t.Fatal(err)
		}
		appendRecords(t, w, 4, 4)
		w.Close()
		seqs, _ := replayAll(t, dir, 3)
		if len(seqs) != 1 || seqs[0] != 4 {
			t.Fatalf("size %d: post-recreate replay %v", size, seqs)
		}
		os.Remove(filepath.Join(dir, walFileName(3)))
	}
}

func TestRemoveBootArtifacts(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.MkdirAll(filepath.Join(dir, snapDirName(0)+tmpSuffix), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := RemoveBootArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("artifacts survived: %v", entries)
	}
	// A directory holding a published snapshot is refused.
	writeSnap(t, dir, 1, 1, func(int) []byte { return []byte{1} })
	if err := RemoveBootArtifacts(dir); err == nil {
		t.Fatal("RemoveBootArtifacts over a published snapshot succeeded")
	}
}

// TestCommitSyncsTmpBeforeRename: Commit syncs the temp directory while it
// is still unpublished, so the rank files' and the manifest's entries are
// durable before the rename, and the parent only after the rename.
func TestCommitSyncsTmpBeforeRename(t *testing.T) {
	dir := t.TempDir()
	final := filepath.Join(dir, snapDirName(7))
	osSync := syncDir
	t.Cleanup(func() { syncDir = osSync })
	var synced []string
	syncDir = func(d string) error {
		_, err := os.Stat(final)
		synced = append(synced, fmt.Sprintf("%s published=%v", d, err == nil))
		return osSync(d)
	}
	writeSnap(t, dir, 7, 2, func(int) []byte { return []byte("blob") })
	want := []string{final + tmpSuffix + " published=false", dir + " published=true"}
	if !slices.Equal(synced, want) {
		t.Fatalf("directory syncs %q, want %q", synced, want)
	}
}

// TestSyncDirReportsErrors: a directory that cannot be opened is an error,
// so Commit and CreateWAL never report a name durable that may not be; a
// real directory syncs.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("syncDir of a missing directory succeeded")
	}
	if err := syncDir(dir); err != nil {
		t.Errorf("syncDir of a directory: %v", err)
	}
}
