package snapshot

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The write-ahead log. One segment file per snapshot interval:
// wal-<base>.log holds the records with sequence numbers > base, where base
// is the AppliedSeq of the snapshot at whose commit the segment was opened
// (the very first segment has base 0). Records are framed as
//
//	[u32 magic][u32 payload len][u64 seq][payload][u32 crc32c(seq ∥ payload)]
//
// and the segment starts with a [u32 magic][u32 version][u64 base] header.
// Appends are sequential writes followed (by default) by one fsync per
// commit, so an acknowledged batch survives power loss; NoWALSync trades
// that for OS-crash-only durability.
const (
	walMagic    = uint32(0x5443574C) // "TCWL"
	recMagic    = uint32(0x54435245) // "TCRE"
	walHdrLen   = 16
	recHdrLen   = 16
	maxRecBytes = 1 << 30 // sanity bound while scanning: a length field past this is corruption, not a record
)

// WAL is the open, appendable tail segment of the log.
type WAL struct {
	dir     string
	f       *os.File
	base    uint64
	seq     uint64 // last appended (or replayed) sequence
	sync    bool
	records int64
	bytes   int64

	// onAppend, when set, receives per-append latency (the record write and
	// the fsync timed separately; fsync < 0 when syncing is disabled) and
	// the framed record size. Appends are not timed at all without it.
	onAppend func(write, fsync time.Duration, bytes int)
}

// SetObserver installs the per-append callback. The package deliberately
// does not depend on any metrics layer: the owner adapts the callback onto
// whatever registry it uses. Must be set before concurrent use; the
// observer survives Rotate.
func (w *WAL) SetObserver(fn func(write, fsync time.Duration, bytes int)) {
	w.onAppend = fn
}

// CreateWAL opens segment wal-<base>.log for appending, creating it (with
// its header) if absent. When the segment already exists — reopening after
// Replay — appends continue at its current end; lastSeq seeds the sequence
// counter (Replay's return value, or base for a fresh log).
func CreateWAL(dir string, base, lastSeq uint64, syncEach bool) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, walFileName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		var hdr []byte
		hdr = appendU32(hdr, walMagic)
		hdr = appendU32(hdr, FormatVersion)
		hdr = appendU64(hdr, base)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		syncDir(dir)
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{dir: dir, f: f, base: base, seq: lastSeq, sync: syncEach}, nil
}

// Append writes one committed-batch record. seq must be exactly the next
// sequence number; the append is flushed (and, unless sync was disabled,
// fsynced) before returning, so a caller acknowledged after Append survives
// a crash.
func (w *WAL) Append(seq uint64, payload []byte) error {
	if seq != w.seq+1 {
		return fmt.Errorf("snapshot: WAL append seq %d after %d", seq, w.seq)
	}
	rec := make([]byte, 0, recHdrLen+len(payload)+4)
	rec = appendU32(rec, recMagic)
	rec = appendU32(rec, uint32(len(payload)))
	rec = appendU64(rec, seq)
	rec = append(rec, payload...)
	var seqb []byte
	seqb = appendU64(seqb, seq)
	rec = appendU32(rec, crc32Concat(seqb, payload))
	var t0 time.Time
	if w.onAppend != nil {
		t0 = time.Now()
	}
	if _, err := w.f.Write(rec); err != nil {
		return err
	}
	writeDur, syncDur := time.Duration(0), time.Duration(-1)
	if w.onAppend != nil {
		writeDur = time.Since(t0)
	}
	if w.sync {
		var t1 time.Time
		if w.onAppend != nil {
			t1 = time.Now()
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
		if w.onAppend != nil {
			syncDur = time.Since(t1)
		}
	}
	if w.onAppend != nil {
		w.onAppend(writeDur, syncDur, len(rec))
	}
	w.seq = seq
	w.records++
	w.bytes += int64(len(rec))
	return nil
}

// Rotate closes the current segment and starts the empty successor
// wal-<newBase>.log — called when the snapshot covering the first newBase
// batches has committed, making every earlier record redundant.
func (w *WAL) Rotate(newBase uint64) error {
	if newBase == w.base {
		// Re-snapshotting an unchanged state: the segment is already the
		// successor of that snapshot.
		return w.f.Sync()
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	nw, err := CreateWAL(w.dir, newBase, w.seq, w.sync)
	if err != nil {
		return err
	}
	w.f, w.base = nw.f, nw.base
	return nil
}

// Stats reports the records and bytes appended through this handle.
func (w *WAL) Stats() (records, bytes int64) { return w.records, w.bytes }

// Close syncs and closes the tail segment.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// crc32Concat checksums the concatenation a ∥ b without materializing it.
func crc32Concat(a, b []byte) uint32 {
	return crc32.Update(crc32.Update(0, crcTable, a), crcTable, b)
}

// Replay scans the WAL segments under dir in base order and invokes fn for
// every record with sequence number > after, in order. Sequence numbers
// must be contiguous from `after`; a gap, or corruption anywhere but the
// tail of the newest segment, fails with ErrCorrupt. A torn or corrupt
// tail on the newest segment — the signature of a crash mid-append — is
// TRUNCATED in place, and replay ends at the last complete record. Replay
// returns the last sequence delivered (== after when the log holds nothing
// newer) and the base of the newest segment (haveSegments reports whether
// any segment exists at all).
func Replay(dir string, after uint64, fn func(seq uint64, payload []byte) error) (last, newestBase uint64, haveSegments bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return after, 0, false, nil
		}
		return after, 0, false, err
	}
	var bases []uint64
	for _, e := range entries {
		if base, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok && !e.IsDir() {
			bases = append(bases, base)
		}
	}
	if len(bases) == 0 {
		return after, 0, false, nil
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	newestBase = bases[len(bases)-1]

	last = after
	for i, base := range bases {
		isNewest := i == len(bases)-1
		path := filepath.Join(dir, walFileName(base))
		raw, err := os.ReadFile(path)
		if err != nil {
			return last, newestBase, true, fmt.Errorf("wal segment %x: %w (%v)", base, ErrCorrupt, err)
		}
		if isNewest && len(raw) < walHdrLen {
			// A crash during rotation: CreateWAL creates the successor file
			// and only then writes and syncs its 16-byte header, so a
			// too-short newest segment never held a synced record. Remove
			// the artifact; the reopening WAL recreates the segment (same
			// base) with a proper header.
			if err := os.Remove(path); err != nil {
				return last, newestBase, true, err
			}
			return last, newestBase, true, nil
		}
		if len(raw) < walHdrLen || readU32(raw) != walMagic {
			return last, newestBase, true, fmt.Errorf("wal segment %x: bad header: %w", base, ErrCorrupt)
		}
		if v := readU32(raw[4:]); v != FormatVersion {
			return last, newestBase, true, fmt.Errorf("wal segment %x: format version %d, this binary reads %d: %w",
				base, v, FormatVersion, ErrCorrupt)
		}
		if hb := readU64(raw[8:]); hb != base {
			return last, newestBase, true, fmt.Errorf("wal segment %x: header claims base %x: %w", base, hb, ErrCorrupt)
		}
		off := walHdrLen
		for off < len(raw) {
			rec, n, ok := parseRecord(raw[off:])
			if !ok {
				if !isNewest {
					return last, newestBase, true, fmt.Errorf("wal segment %x: corrupt record at offset %d in a non-tail segment: %w",
						base, off, ErrCorrupt)
				}
				// A bad record at the end of the newest segment is a torn
				// tail (crash mid-append) ONLY if nothing valid follows it.
				// A complete record found beyond the damage means acked
				// batches would be silently lost by truncating — that is
				// mid-segment corruption, refused loudly.
				if recoverableBeyond(raw[off:], last) {
					return last, newestBase, true, fmt.Errorf("wal segment %x: corrupt record at offset %d with valid records beyond it: %w",
						base, off, ErrCorrupt)
				}
				if err := os.Truncate(path, int64(off)); err != nil {
					return last, newestBase, true, err
				}
				return last, newestBase, true, nil
			}
			if rec.seq <= after {
				// Covered by the snapshot already.
			} else if rec.seq != last+1 {
				return last, newestBase, true, fmt.Errorf("wal: record seq %d after %d (gap): %w", rec.seq, last, ErrCorrupt)
			} else {
				if err := fn(rec.seq, rec.payload); err != nil {
					return last, newestBase, true, err
				}
				last = rec.seq
			}
			off += n
		}
	}
	return last, newestBase, true, nil
}

// RemoveBootArtifacts clears the leftovers of a first boot that crashed
// before its initial snapshot was published — WAL segments and snapshot
// temp directories. A WAL without a base snapshot can replay onto nothing,
// so such a directory holds no recoverable state; clearing it lets the
// fresh build proceed instead of bricking the directory. As a safety
// check, the call refuses to touch a directory that DOES hold a published
// snapshot.
func RemoveBootArtifacts(dir string) error {
	seqs, err := List(dir)
	if err != nil {
		return err
	}
	if len(seqs) > 0 {
		return fmt.Errorf("snapshot: %s holds published snapshots — not boot artifacts", dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if _, ok := parseSeq(name, walPrefix, walSuffix); ok && !e.IsDir() {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
		if e.IsDir() && strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, tmpSuffix) {
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

type walRecord struct {
	seq     uint64
	payload []byte
}

// recoverableBeyond reports whether a complete, checksum-valid record with
// a plausible later sequence number exists anywhere past the damage at the
// head of b — the signature of mid-segment corruption (bit rot) rather
// than a torn tail, whose garbage extends to end of file. The CRC makes a
// false positive on torn-tail garbage astronomically unlikely.
func recoverableBeyond(b []byte, lastSeq uint64) bool {
	for off := 1; off+recHdrLen+4 <= len(b); off++ {
		if rec, _, ok := parseRecord(b[off:]); ok && rec.seq > lastSeq {
			return true
		}
	}
	return false
}

// parseRecord decodes one record from the head of b, returning its total
// framed length. ok is false for a truncated or checksum-failing record.
func parseRecord(b []byte) (rec walRecord, n int, ok bool) {
	if len(b) < recHdrLen+4 || readU32(b) != recMagic {
		return rec, 0, false
	}
	plen := int(readU32(b[4:]))
	if plen < 0 || plen > maxRecBytes || len(b) < recHdrLen+plen+4 {
		return rec, 0, false
	}
	rec.seq = readU64(b[8:])
	rec.payload = b[recHdrLen : recHdrLen+plen]
	crc := readU32(b[recHdrLen+plen:])
	var seqb []byte
	seqb = appendU64(seqb, rec.seq)
	if crc32Concat(seqb, rec.payload) != crc {
		return rec, 0, false
	}
	return rec, recHdrLen + plen + 4, true
}
