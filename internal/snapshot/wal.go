package snapshot

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// The write-ahead log. One segment file per snapshot interval:
// wal-<base>.log holds the records with sequence numbers > base, where base
// is the AppliedSeq of the snapshot at whose commit the segment was opened
// (the very first segment has base 0). A record is recMagic followed by the
// record body (AppendRecordBody):
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
	recHdrLen   = 16      // magic, payload length, seq
	maxRecBytes = 1 << 30 // a length field past this is corruption, not a record

	RecordBodyOverhead = 16 // a record body's bytes besides its payload: length, seq, crc
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
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
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
	rec := appendU32(make([]byte, 0, recHdrLen+len(payload)+4), recMagic)
	rec = AppendRecordBody(rec, seq, payload)
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

// Record is one WAL record: a committed batch's sequence number and payload.
type Record struct {
	Seq     uint64
	Payload []byte
}

// The record body's parse failures.
var (
	ErrShortRecord    = errors.New("snapshot: record truncated")
	ErrRecordChecksum = errors.New("snapshot: record checksum mismatch")
)

// AppendRecordBody appends the body of record (seq, payload) to b:
//
//	[u32 payload len][u64 seq][payload][u32 crc32c(seq ∥ payload)]
//
// A WAL record is recMagic and then the body; a replication frame carries
// the body alone, so both keep the checksum the WAL stored.
func AppendRecordBody(b []byte, seq uint64, payload []byte) []byte {
	b = appendU32(b, uint32(len(payload)))
	b = appendU64(b, seq)
	b = append(b, payload...)
	return appendU32(b, crc32.Checksum(b[len(b)-len(payload)-8:], crcTable))
}

// ParseRecordBody parses the record body at the head of b and returns its
// length. The payload aliases b. It fails with ErrShortRecord when b ends
// before the body does and with ErrRecordChecksum when the checksum does
// not match.
func ParseRecordBody(b []byte) (rec Record, n int, err error) {
	if len(b) < RecordBodyOverhead || readU32(b) > maxRecBytes || int(readU32(b)) > len(b)-RecordBodyOverhead {
		return rec, 0, ErrShortRecord
	}
	plen := int(readU32(b))
	if crc32.Checksum(b[4:12+plen], crcTable) != readU32(b[12+plen:]) {
		return rec, 0, ErrRecordChecksum
	}
	return Record{Seq: readU64(b[4:]), Payload: b[12 : 12+plen]}, RecordBodyOverhead + plen, nil
}

// parseRecord parses the WAL record at the head of b: recMagic, then the
// body. ok is false for a truncated or checksum-failing record.
func parseRecord(b []byte) (rec Record, n int, ok bool) {
	if len(b) < 4 || readU32(b) != recMagic {
		return rec, 0, false
	}
	rec, n, err := ParseRecordBody(b[4:])
	return rec, 4 + n, err == nil
}

// Replay scans the WAL segments under dir in base order and invokes fn for
// every record with sequence number > after, in order. Sequence numbers
// must be contiguous from `after`; a gap, or corruption anywhere but the
// tail of the newest segment, fails with ErrCorrupt. A torn or corrupt
// tail on the newest segment — the signature of a crash mid-append — is
// TRUNCATED in place, and replay ends at the last complete record. The
// payload fn receives is valid only during the call. Replay returns the
// last sequence delivered (== after when the log holds nothing newer) and
// the base of the newest segment (haveSegments reports whether any segment
// exists at all).
func Replay(dir string, after uint64, fn func(seq uint64, payload []byte) error) (last, newestBase uint64, haveSegments bool, err error) {
	bases, err := segments(dir)
	if err != nil || len(bases) == 0 {
		return after, 0, false, err
	}
	w := walker{last: after, after: after, repair: true, fn: func(seq uint64, payload []byte) (bool, error) {
		return true, fn(seq, payload)
	}}
	err = w.walk(dir, bases)
	return w.last, bases[len(bases)-1], true, err
}

// ReadAfter reads committed WAL records with sequence numbers > after from
// the segments under dir, in order, up to maxRecords records or ~maxBytes of
// payload (whichever comes first; <= 0 means unbounded, and the first
// available record is always returned even when larger than maxBytes). The
// payloads are private copies.
//
// Unlike Replay this is a LIVE tail: the primary may be appending to — or
// rotating — the newest segment while we scan it, so an incomplete or
// checksum-failing record at the newest segment's tail simply ends the read
// (it is the write in flight, never truncated from here). Corruption or a
// sequence gap anywhere else still fails with ErrCorrupt: acked records are
// missing and the reader must not skip over them.
//
// gone reports that records in (after, oldest segment base] have been
// pruned by snapshot retention — the caller holds state too old to catch up
// from the log and must re-bootstrap from a snapshot.
func ReadAfter(dir string, after uint64, maxRecords, maxBytes int) (recs []Record, gone bool, err error) {
	bases, err := segments(dir)
	if err != nil || len(bases) == 0 {
		return nil, false, err
	}
	if after < bases[0] {
		return nil, true, nil
	}
	// Segment wal-<b>.log holds records with seq > b; start at the largest
	// base <= after and take every later segment.
	start := sort.Search(len(bases), func(i int) bool { return bases[i] > after })
	size := 0
	w := walker{last: after, after: after, fn: func(seq uint64, payload []byte) (bool, error) {
		recs = append(recs, Record{Seq: seq, Payload: bytes.Clone(payload)})
		size += len(payload)
		return (maxRecords <= 0 || len(recs) < maxRecords) && (maxBytes <= 0 || size < maxBytes), nil
	}}
	err = w.walk(dir, bases[start-1:])
	if errors.Is(err, fs.ErrNotExist) {
		// Retention removed a segment after the listing: whatever it held
		// past `after` is unrecoverable from the log.
		return recs, true, nil
	}
	return recs, false, err
}

// segments lists the bases of the WAL segments under dir, ascending; a
// missing directory holds none.
func segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var bases []uint64
	for _, e := range entries {
		if base, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok && !e.IsDir() {
			bases = append(bases, base)
		}
	}
	slices.Sort(bases)
	return bases, nil
}

// walker is the one reader of WAL segments, under Replay and ReadAfter. It
// checks each segment's header, then reads the records in order through a
// buffered reader, one at a time, checks every checksum and hands fn every
// record with seq > after; their sequence numbers must run on from after.
// fn's payload is valid only during the call; fn returns false to end the
// walk after that record.
type walker struct {
	after, last uint64 // last: the last record delivered
	// repair is Replay's handling of a bad newest segment: remove one too
	// short for its header, truncate a torn tail. A live tail (ReadAfter)
	// stops there and changes nothing.
	repair bool
	fn     func(seq uint64, payload []byte) (more bool, err error)
	r      *bufio.Reader
	buf    []byte // the record in hand
}

func (w *walker) walk(dir string, bases []uint64) error {
	for i, base := range bases {
		more, err := w.segment(filepath.Join(dir, walFileName(base)), base, i == len(bases)-1)
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// segment walks one segment; more reports whether the walk goes on.
func (w *walker) segment(path string, base uint64, newest bool) (more bool, err error) {
	st, err := os.Stat(path)
	if err != nil {
		return false, fmt.Errorf("wal segment %x: %w (%w)", base, ErrCorrupt, err)
	}
	if size := st.Size(); size < walHdrLen {
		if !newest {
			return false, fmt.Errorf("wal segment %x: short header in a non-tail segment: %w", base, ErrCorrupt)
		}
		// A crash during rotation, or a rotation in flight: CreateWAL creates
		// the successor file and only then writes and syncs its 16-byte
		// header, so a too-short newest segment never held a synced record.
		// Replay removes the artifact; the reopening WAL recreates the
		// segment (same base) with a proper header.
		if w.repair {
			return false, os.Remove(path)
		}
		return false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("wal segment %x: %w (%w)", base, ErrCorrupt, err)
	}
	defer f.Close()
	w.r = bufio.NewReader(f)
	if err := w.read(walHdrLen); err != nil {
		return false, fmt.Errorf("wal segment %x: %w (%w)", base, ErrCorrupt, err)
	}
	if magic, v, hb := readU32(w.buf), readU32(w.buf[4:]), readU64(w.buf[8:]); magic != walMagic || v != FormatVersion || hb != base {
		return false, fmt.Errorf("wal segment %x: bad header (magic %x, format version %d, base %x; this binary reads version %d): %w",
			base, magic, v, hb, FormatVersion, ErrCorrupt)
	}
	// Read no further than the size seen above: the bytes appended since
	// are the next read's. A length field is believed only as far as the
	// segment reaches.
	for off, size := int64(walHdrLen), st.Size(); off < size; {
		rec, n, ok := Record{}, 0, false
		if rest := size - off; rest >= recHdrLen+4 {
			head, err := w.r.Peek(recHdrLen)
			if err == nil && int64(readU32(head[4:]))+recHdrLen+4 <= rest {
				err = w.read(recHdrLen + int(readU32(head[4:])) + 4)
				rec, n, ok = parseRecord(w.buf)
			}
			if err != nil {
				return false, fmt.Errorf("wal segment %x: %w (%w)", base, ErrCorrupt, err)
			}
		}
		if !ok && !newest {
			return false, fmt.Errorf("wal segment %x: corrupt record at offset %d in a non-tail segment: %w",
				base, off, ErrCorrupt)
		}
		if !ok {
			return false, w.tornTail(path, base, off)
		}
		off += int64(n)
		if rec.Seq <= w.after {
			continue // covered by the snapshot already
		}
		if rec.Seq != w.last+1 {
			return false, fmt.Errorf("wal: record seq %d after %d (gap): %w", rec.Seq, w.last, ErrCorrupt)
		}
		more, err := w.fn(rec.Seq, rec.Payload)
		if err != nil {
			return false, err
		}
		w.last = rec.Seq
		if !more {
			return false, nil
		}
	}
	return true, nil
}

// read reads the next n bytes of the segment into buf.
func (w *walker) read(n int) error {
	w.buf = slices.Grow(w.buf[:0], n)[:n]
	_, err := io.ReadFull(w.r, w.buf)
	return err
}

// tornTail handles a bad record at offset off of the newest segment. A live
// tail stops there: it is the append in flight, or a torn tail the next
// Replay truncates. Replay truncates it — the signature of a crash
// mid-append — only if nothing valid follows it: a complete record beyond
// the damage means truncating would silently lose acked batches. That is
// mid-segment corruption, refused loudly.
func (w *walker) tornTail(path string, base uint64, off int64) error {
	if !w.repair {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal segment %x: %w (%w)", base, ErrCorrupt, err)
	}
	if recoverableBeyond(raw[off:], w.last) {
		return fmt.Errorf("wal segment %x: corrupt record at offset %d with valid records beyond it: %w",
			base, off, ErrCorrupt)
	}
	return os.Truncate(path, off)
}

// recoverableBeyond reports whether a complete, checksum-valid record with
// a plausible later sequence number exists anywhere past the damage at the
// head of b — the signature of mid-segment corruption (bit rot) rather
// than a torn tail, whose garbage extends to end of file. The CRC makes a
// false positive on torn-tail garbage astronomically unlikely.
func recoverableBeyond(b []byte, lastSeq uint64) bool {
	for off := 1; off+recHdrLen+4 <= len(b); off++ {
		if rec, _, ok := parseRecord(b[off:]); ok && rec.Seq > lastSeq {
			return true
		}
	}
	return false
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
