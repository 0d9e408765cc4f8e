// Package snapshot is the durability layer of a resident cluster: it
// persists the per-rank core.Prepared state into versioned, checksummed
// snapshot directories and logs every committed write batch to an
// append-only write-ahead log (WAL), so a process restart can reopen the
// cluster — newest valid snapshot plus WAL-tail replay — without re-running
// the preprocessing pipeline.
//
// On-disk layout, all under one persistence directory:
//
//	snap-<seq>/             one snapshot: the cluster state after the
//	  MANIFEST.json          first <seq> committed write batches
//	  rank-0000.bin ...      one framed, checksummed blob per rank
//	snap-<seq>.tmp/         a snapshot under construction (never read)
//	wal-<base>.log          one WAL segment: records with seq > <base>
//
// Crash-consistency rules:
//
//   - A snapshot is built in a temp directory and published with one atomic
//     rename; a crash mid-write leaves only a .tmp directory, which readers
//     ignore and the next successful snapshot removes.
//   - Every rank blob and every WAL record carries a CRC32C checksum; the
//     manifest additionally pins each blob's size and checksum, so a
//     snapshot either validates completely or is rejected with ErrCorrupt —
//     never partially loaded.
//   - The WAL is rotated at every snapshot: segment wal-<base>.log starts
//     empty when the snapshot covering the first <base> batches commits, so
//     a snapshot supersedes all older segments (PruneChains deletes them).
//   - A torn record at the tail of the NEWEST segment is a crash artifact:
//     Replay truncates it and recovery proceeds from the last complete
//     record. Corruption anywhere else (an older segment, a sequence gap)
//     is genuine damage and fails with ErrCorrupt.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// FormatVersion is the snapshot format this package writes. Decoding a
// manifest with a different version fails with ErrCorrupt: the state must
// be rebuilt from the raw graph (or migrated by a newer binary), never
// half-interpreted.
const FormatVersion = 1

// ErrCorrupt marks a snapshot or WAL that cannot be trusted: an unknown
// format version, a checksum mismatch, a truncated or malformed file, or a
// WAL sequence gap. Loads never return partial state alongside it. Test
// with errors.Is.
var ErrCorrupt = errors.New("snapshot: corrupt or unreadable persistent state")

// crcTable is CRC32-Castagnoli, hardware-accelerated on modern CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RankFile pins one rank blob of a snapshot: decode refuses the file unless
// both size and checksum match the manifest.
type RankFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32c"`
}

// Matches reports whether payload, a rank blob without its frame, carries rf's checksum.
func (rf RankFile) Matches(payload []byte) bool {
	return crc32.Checksum(payload, crcTable) == rf.CRC
}

// Manifest describes one snapshot. It is written last, after every rank
// blob has been synced, so its presence certifies the snapshot directory.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// AppliedSeq is the WAL sequence the snapshot covers: the state is the
	// graph after the first AppliedSeq committed write batches. Replay
	// resumes at AppliedSeq+1.
	AppliedSeq uint64 `json:"applied_seq"`
	// Ranks is the world size a reopening cluster stands up before it reads
	// any blob. Everything else about the layout — grid, schedule and
	// enumeration rule — is recorded and checked by the rank blobs alone;
	// manifests written when they were also copied here still decode, as
	// the copies' keys are ignored.
	Ranks int `json:"ranks"`
	// Maintained cluster-level totals not stored inside the rank blobs:
	// the running triangle count (-1 if no count had completed yet) and the
	// write-path staleness counters.
	Triangles    int64 `json:"triangles"`
	BaseM        int64 `json:"base_m"`
	AppliedEdges int64 `json:"applied_edges"`

	// Delta-chain fields. Kind is KindBase (or empty, for snapshots written
	// before chains existed) when the rank blobs are full state, KindDelta
	// when they are churn-proportional diffs to apply on top of the state
	// at ParentSeq (which may itself be a delta). ChainLen counts the
	// deltas between this snapshot and its base; ChurnSinceBase the
	// effective edges applied since that base, so a reopened cluster
	// resumes the compaction policy where it left off.
	Kind           string `json:"kind,omitempty"`
	ParentSeq      uint64 `json:"parent_seq,omitempty"`
	ChainLen       int    `json:"chain_len,omitempty"`
	ChurnSinceBase int64  `json:"churn_since_base,omitempty"`

	RankFiles []RankFile `json:"rank_files"`
}

// Snapshot kinds. The empty string reads as KindBase for compatibility with
// manifests written before delta chains existed.
const (
	KindBase  = "base"
	KindDelta = "delta"
)

// IsDelta reports whether the snapshot's rank blobs are diffs chained off
// ParentSeq rather than full state.
func (m *Manifest) IsDelta() bool { return m.Kind == KindDelta }

const (
	manifestName = "MANIFEST.json"
	snapPrefix   = "snap-"
	tmpSuffix    = ".tmp"
	walPrefix    = "wal-"
	walSuffix    = ".log"

	// Rank-blob framing: magic, version, payload length, payload, CRC32C.
	blobMagic = uint32(0x54435342) // "TCSB"
)

func snapDirName(seq uint64) string { return fmt.Sprintf("%s%016x", snapPrefix, seq) }

// Dir returns the published directory of snapshot seq under the
// persistence root.
func Dir(root string, seq uint64) string { return filepath.Join(root, snapDirName(seq)) }
func walFileName(base uint64) string     { return fmt.Sprintf("%s%016x%s", walPrefix, base, walSuffix) }
func rankFileName(rank int) string       { return fmt.Sprintf("rank-%04d.bin", rank) }

// parseSeq extracts the hex sequence from a snap-/wal- name; ok is false
// for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Writer builds one snapshot in a temp directory. WriteRank calls are safe
// concurrently for distinct ranks (the rank goroutines of one epoch);
// Commit publishes the snapshot with an atomic rename.
type Writer struct {
	dir   string // persistence root
	tmp   string // temp directory under construction
	final string // published directory name
	seq   uint64

	mu    sync.Mutex
	files map[int]RankFile
}

// NewWriter creates the temp directory for the snapshot covering the first
// seq committed batches, replacing any leftover temp of a crashed attempt.
func NewWriter(dir string, seq uint64) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	final := filepath.Join(dir, snapDirName(seq))
	tmp := final + tmpSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return nil, err
	}
	return &Writer{dir: dir, tmp: tmp, final: final, seq: seq, files: make(map[int]RankFile)}, nil
}

// WriteRank writes one rank's state blob — framed with the format magic,
// version, length and CRC32C — and syncs it to disk.
func (w *Writer) WriteRank(rank int, payload []byte) error {
	name := rankFileName(rank)
	frame := make([]byte, 0, 16+len(payload)+4)
	frame = appendU32(frame, blobMagic)
	frame = appendU32(frame, FormatVersion)
	frame = appendU64(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = appendU32(frame, crc32.Checksum(payload, crcTable))

	path := filepath.Join(w.tmp, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	w.mu.Lock()
	w.files[rank] = RankFile{Name: name, Size: int64(len(frame)), CRC: crc32.Checksum(payload, crcTable)}
	w.mu.Unlock()
	return nil
}

// Commit fills the manifest's rank-file table, writes and syncs the
// manifest, and atomically renames the temp directory into place. m's
// FormatVersion and RankFiles are set by Commit; every rank in [0, m.Ranks)
// must have been written.
func (w *Writer) Commit(m Manifest) error {
	m.FormatVersion = FormatVersion
	m.AppliedSeq = w.seq
	m.RankFiles = make([]RankFile, m.Ranks)
	w.mu.Lock()
	for r := 0; r < m.Ranks; r++ {
		rf, ok := w.files[r]
		if !ok {
			w.mu.Unlock()
			return fmt.Errorf("snapshot: commit with rank %d unwritten", r)
		}
		m.RankFiles[r] = rf
	}
	w.mu.Unlock()

	enc, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(w.tmp, manifestName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(enc); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Sync the temp directory so the rank files' and the manifest's entries
	// are durable before the rename publishes them. Publish: one atomic
	// rename, then sync the parent directory so the new name itself is
	// durable.
	if err := syncDir(w.tmp); err != nil {
		return err
	}
	if err := os.RemoveAll(w.final); err != nil {
		return err
	}
	if err := os.Rename(w.tmp, w.final); err != nil {
		return err
	}
	return syncDir(w.dir)
}

// Abort discards an unfinished snapshot attempt.
func (w *Writer) Abort() { os.RemoveAll(w.tmp) }

// syncDir fsyncs a directory, so that the names created or renamed in it
// are durable. A filesystem that cannot sync a directory answers EINVAL,
// which is tolerated: there is nothing more to make durable there. Any
// other error, opening the directory included, is returned. It is a
// variable so that tests can record the order of directory syncs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// List returns the sequence numbers of the published snapshots under dir,
// ascending. Temp directories and foreign files are ignored.
func List(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if !e.IsDir() || strings.HasSuffix(e.Name(), tmpSuffix) {
			continue
		}
		if seq, ok := parseSeq(e.Name(), snapPrefix, ""); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// DecodeManifest parses and validates the manifest bytes of snapshot seq,
// wherever they were read from: the format version must match, the rank
// count must be positive with one pinned file per rank, the manifest must
// name seq, and a delta must chain off an earlier snapshot. Every failure
// wraps ErrCorrupt.
func DecodeManifest(raw []byte, seq uint64) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("snapshot %d: manifest: %w (%v)", seq, ErrCorrupt, err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("snapshot %d: format version %d, this binary reads %d: %w",
			seq, m.FormatVersion, FormatVersion, ErrCorrupt)
	}
	if m.Ranks < 1 || len(m.RankFiles) != m.Ranks {
		return nil, fmt.Errorf("snapshot %d: manifest pins %d rank files for %d ranks: %w",
			seq, len(m.RankFiles), m.Ranks, ErrCorrupt)
	}
	if m.AppliedSeq != seq {
		return nil, fmt.Errorf("snapshot %d: manifest claims applied seq %d: %w", seq, m.AppliedSeq, ErrCorrupt)
	}
	if m.IsDelta() && m.ParentSeq >= seq {
		return nil, fmt.Errorf("snapshot %d: delta chains off non-earlier snapshot %d: %w", seq, m.ParentSeq, ErrCorrupt)
	}
	return &m, nil
}

// Load reads and validates the manifest of snapshot seq (DecodeManifest),
// and checks that every pinned rank file exists with the pinned size.
// (Blob checksums are verified by ReadRank, rank by rank.)
func Load(dir string, seq uint64) (*Manifest, error) {
	path := filepath.Join(dir, snapDirName(seq), manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: manifest: %w (%v)", seq, ErrCorrupt, err)
	}
	m, err := DecodeManifest(raw, seq)
	if err != nil {
		return nil, err
	}
	for r, rf := range m.RankFiles {
		st, err := os.Stat(filepath.Join(dir, snapDirName(seq), rf.Name))
		if err != nil || st.Size() != rf.Size {
			return nil, fmt.Errorf("snapshot %d: rank %d blob %s missing or resized: %w", seq, r, rf.Name, ErrCorrupt)
		}
	}
	return m, nil
}

// LoadNewest validates snapshots newest-first and returns the first intact
// manifest (nil if the directory holds no snapshot at all).
func LoadNewest(dir string) (*Manifest, error) {
	seqs, err := List(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, nil
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		m, err := Load(dir, seqs[i])
		if err == nil {
			return m, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// ReadRank reads one rank blob of a validated snapshot, verifying the
// framing and both checksums (frame trailer and manifest pin) before
// returning the payload.
func ReadRank(dir string, m *Manifest, rank int) ([]byte, error) {
	if rank < 0 || rank >= len(m.RankFiles) {
		return nil, fmt.Errorf("snapshot %d: no rank %d: %w", m.AppliedSeq, rank, ErrCorrupt)
	}
	rf := m.RankFiles[rank]
	raw, err := os.ReadFile(filepath.Join(dir, snapDirName(m.AppliedSeq), rf.Name))
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: rank %d: %w (%v)", m.AppliedSeq, rank, ErrCorrupt, err)
	}
	if int64(len(raw)) != rf.Size || len(raw) < 20 {
		return nil, fmt.Errorf("snapshot %d: rank %d blob truncated: %w", m.AppliedSeq, rank, ErrCorrupt)
	}
	if readU32(raw[0:]) != blobMagic {
		return nil, fmt.Errorf("snapshot %d: rank %d blob has no magic: %w", m.AppliedSeq, rank, ErrCorrupt)
	}
	if v := readU32(raw[4:]); v != FormatVersion {
		return nil, fmt.Errorf("snapshot %d: rank %d blob format version %d, this binary reads %d: %w",
			m.AppliedSeq, rank, v, FormatVersion, ErrCorrupt)
	}
	plen := readU64(raw[8:])
	if uint64(len(raw)) != 16+plen+4 {
		return nil, fmt.Errorf("snapshot %d: rank %d blob length mismatch: %w", m.AppliedSeq, rank, ErrCorrupt)
	}
	payload := raw[16 : 16+plen]
	crc := readU32(raw[16+plen:])
	if got := crc32.Checksum(payload, crcTable); got != crc || got != rf.CRC {
		return nil, fmt.Errorf("snapshot %d: rank %d blob checksum mismatch: %w", m.AppliedSeq, rank, ErrCorrupt)
	}
	return payload, nil
}

// Remove deletes one published snapshot directory. OpenCluster uses it to
// drop snapshots whose checksums failed validation, so retention never
// counts unreadable state toward its quota.
func Remove(dir string, seq uint64) error {
	return os.RemoveAll(filepath.Join(dir, snapDirName(seq)))
}

// cleanSegments deletes every WAL segment fully superseded by the oldest
// retained snapshot and sweeps temp directories of crashed snapshot
// attempts. Segment wal-<base> holds records with seq in (base, nextBase],
// so it is deletable exactly when the NEXT segment's base is ≤ the oldest
// retained seq — judging by the segment's own base would be wrong if a
// crash between snapshot commit and WAL rotation left no boundary at that
// snapshot. The newest segment always survives.
func cleanSegments(dir string, oldestKept uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasSuffix(e.Name(), tmpSuffix) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	bases, err := segments(dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(bases); i++ {
		if bases[i+1] <= oldestKept {
			if err := os.Remove(filepath.Join(dir, walFileName(bases[i]))); err != nil {
				return err
			}
		}
	}
	return nil
}

// PruneChains is the chain-aware retention policy: keep the newest
// keepBases BASE snapshots plus every snapshot above the oldest retained
// base (the delta chains that depend on it), delete everything older, and
// delete the superseded WAL segments. A snapshot whose manifest cannot be
// read counts as a delta (it can never serve as a fallback base); if no
// readable base exists at all nothing is deleted — corrupt-chain recovery
// may still salvage an older snapshot.
func PruneChains(dir string, keepBases int) error {
	seqs, err := List(dir)
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		return nil
	}
	if keepBases < 1 {
		keepBases = 1
	}
	var bases []uint64
	for _, seq := range seqs {
		if m, err := Load(dir, seq); err == nil && !m.IsDelta() {
			bases = append(bases, seq)
		}
	}
	if len(bases) == 0 {
		return cleanSegments(dir, seqs[0])
	}
	cutoff := bases[0]
	if len(bases) > keepBases {
		cutoff = bases[len(bases)-keepBases]
	}
	for _, seq := range seqs {
		if seq < cutoff {
			if err := os.RemoveAll(filepath.Join(dir, snapDirName(seq))); err != nil {
				return err
			}
		}
	}
	return cleanSegments(dir, cutoff)
}

// Little-endian scalar helpers shared with the WAL encoding.

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(readU32(b)) | uint64(readU32(b[4:]))<<32
}
