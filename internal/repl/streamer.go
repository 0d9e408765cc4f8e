package repl

import (
	"context"
	"errors"
	"time"

	"tc2d/internal/snapshot"
)

// ErrGone reports that the records a follower asked for have been pruned by
// snapshot retention: the log no longer reaches back to its applied
// sequence and it must re-bootstrap from the newest snapshot.
var ErrGone = errors.New("repl: requested WAL records pruned; re-bootstrap from a snapshot")

// Source is the primary cluster as the streamer sees it: a WAL directory
// plus the committed-sequence publication. The root package's Cluster
// implements it.
type Source interface {
	// WALDir is the persistence directory holding wal-*.log segments and
	// snap-*/ directories.
	WALDir() string
	// CommittedSeq is the highest durably committed (acknowledged) batch
	// sequence number.
	CommittedSeq() uint64
	// WaitCommitted blocks until the committed sequence exceeds after or the
	// context is done, and returns the committed sequence either way.
	WaitCommitted(ctx context.Context, after uint64) uint64
}

// Streamer cuts frames from a Source's WAL for shipping: it tails segments
// across rotation, aggregates records up to the caps, long-polls on the
// commit wake when the follower is caught up, and surfaces retention
// pruning as ErrGone.
type Streamer struct {
	src Source
}

func NewStreamer(src Source) *Streamer { return &Streamer{src: src} }

// Frame returns the next frame after sequence `after`: up to maxRecords
// records / ~maxBytes of payload (<= 0 for the defaults). When the
// follower is caught up it first blocks up to maxWait for new commits, then
// reads the log once; a frame with no records carries the current committed
// sequence — the heartbeat that lets followers bound wall-clock staleness.
func (s *Streamer) Frame(ctx context.Context, after uint64, maxRecords, maxBytes int, maxWait time.Duration) (*Frame, error) {
	if maxRecords <= 0 {
		maxRecords = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	if maxWait > 0 && s.src.CommittedSeq() <= after {
		wctx, cancel := context.WithTimeout(ctx, maxWait)
		s.src.WaitCommitted(wctx, after)
		cancel()
	}
	recs, gone, err := snapshot.ReadAfter(s.src.WALDir(), after, maxRecords, maxBytes)
	if err != nil {
		return nil, err
	}
	if gone {
		return nil, ErrGone
	}
	f := &Frame{Committed: s.src.CommittedSeq(), Records: recs}
	// An appended-but-not-yet-published record can land in the tail read;
	// never ship a frame whose committed watermark trails its own records.
	if n := len(recs); n > 0 && recs[n-1].Seq > f.Committed {
		f.Committed = recs[n-1].Seq
	}
	return f, nil
}
