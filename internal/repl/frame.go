// Package repl is the WAL-shipping replication layer: the primary side
// tails the snapshot package's WAL segments and serves them as aggregated,
// CRC-framed record batches over HTTP; the follower side fetches snapshot
// chains for bootstrap and applies streamed frames. The package deals only
// in bytes and sequence numbers — composing the fetched state into a
// resident cluster is the root package's job (OpenFollower).
package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tc2d/internal/snapshot"
)

// A frame aggregates consecutive WAL records into one shippable unit —
// Sanders & Uhl's message-aggregation lesson applied to the read-replica
// stream: one HTTP round trip carries a size-capped batch, not one record.
//
//	[u32 magic][u32 version][u64 committed][u32 count]
//	count × [u32 plen][u64 seq][payload][u32 crc32c(seq ∥ payload)]
//
// A frame record is the WAL record without its magic: the record body that
// snapshot.AppendRecordBody writes and snapshot.ParseRecordBody checks, the
// one definition of that format. Every record keeps the checksum the WAL
// stored, so a follower verifies end-to-end integrity (disk → primary → wire
// → apply) and a decode error rejects the WHOLE frame before any record is
// applied.
const (
	frameMagic   = uint32(0x54435246) // "TCRF"
	FrameVersion = 1
	frameHdrLen  = 20
)

// Frame is one decoded batch of the replication stream. Committed is the
// primary's committed sequence number when the frame was cut; an empty
// Records with Committed == the follower's applied seq is the caught-up
// heartbeat that bounds max_lag_ms staleness.
type Frame struct {
	Committed uint64
	Records   []snapshot.Record
}

// Encode renders the frame in wire format.
func (f *Frame) Encode() []byte {
	n := frameHdrLen
	for _, r := range f.Records {
		n += snapshot.RecordBodyOverhead + len(r.Payload)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint32(b, frameMagic)
	b = binary.LittleEndian.AppendUint32(b, FrameVersion)
	b = binary.LittleEndian.AppendUint64(b, f.Committed)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Records)))
	for _, r := range f.Records {
		b = snapshot.AppendRecordBody(b, r.Seq, r.Payload)
	}
	return b
}

// DecodeFrame parses and fully verifies a wire frame: header, every
// record's checksum, in-frame sequence contiguity, and exact length. Any
// failure rejects the frame as a whole — a follower never applies half a
// frame.
func DecodeFrame(b []byte) (*Frame, error) {
	if len(b) < frameHdrLen || binary.LittleEndian.Uint32(b) != frameMagic {
		return nil, fmt.Errorf("repl: frame has no magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != FrameVersion {
		return nil, fmt.Errorf("repl: frame version %d, this binary reads %d", v, FrameVersion)
	}
	f := &Frame{Committed: binary.LittleEndian.Uint64(b[8:])}
	count := int(binary.LittleEndian.Uint32(b[16:]))
	off := frameHdrLen
	for i := 0; i < count; i++ {
		rec, n, err := snapshot.ParseRecordBody(b[off:])
		if err != nil {
			return nil, fmt.Errorf("repl: frame record %d/%d: %w", i, count, err)
		}
		if i > 0 && rec.Seq != f.Records[i-1].Seq+1 {
			return nil, fmt.Errorf("repl: frame record seq %d after %d (gap)", rec.Seq, f.Records[i-1].Seq)
		}
		rec.Payload = bytes.Clone(rec.Payload)
		f.Records = append(f.Records, rec)
		off += n
	}
	if off != len(b) {
		return nil, fmt.Errorf("repl: %d trailing bytes after frame", len(b)-off)
	}
	return f, nil
}
