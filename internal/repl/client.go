package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tc2d/internal/snapshot"
)

// Client is the follower's view of a primary's replication surface. All
// fetched bytes are verified before they are returned: manifests are
// re-validated field by field, rank blobs against the manifest's CRC pin,
// frames record by record.
type Client struct {
	base string
	hc   *http.Client

	walBytes  atomic.Int64
	snapBytes atomic.Int64
	frames    atomic.Int64
}

// NewClient wraps primaryURL (e.g. "http://10.0.0.1:7171"). The HTTP
// client's timeout must outlast the long-poll, so per-request deadlines
// come from contexts instead.
func NewClient(primaryURL string) *Client {
	return &Client{
		base: strings.TrimRight(primaryURL, "/"),
		hc:   &http.Client{},
	}
}

// WALBytes reports the total wire bytes of frames fetched so far.
func (c *Client) WALBytes() int64 { return c.walBytes.Load() }

// SnapshotBytes reports the total bootstrap blob bytes fetched so far.
func (c *Client) SnapshotBytes() int64 { return c.snapBytes.Load() }

// Frames reports the number of frames fetched so far.
func (c *Client) Frames() int64 { return c.frames.Load() }

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(req)
}

func drainError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("repl: primary returned %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("repl: primary returned %s", resp.Status)
}

// NewestSnapshot asks the primary for its newest published snapshot
// sequence. ok is false when the primary has not published one yet.
func (c *Client) NewestSnapshot(ctx context.Context) (seq uint64, ok bool, err error) {
	resp, err := c.get(ctx, "/repl/snapshot/newest")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, drainError(resp)
	}
	var out struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, false, fmt.Errorf("repl: newest snapshot: %w", err)
	}
	return out.Seq, true, nil
}

// Manifest fetches and validates snapshot seq's manifest. A snapshot
// pruned between discovery and fetch surfaces as snapshot.ErrCorrupt so
// the bootstrap loop restarts from a fresh newest lookup.
func (c *Client) Manifest(ctx context.Context, seq uint64) (*snapshot.Manifest, error) {
	resp, err := c.get(ctx, fmt.Sprintf("/repl/snapshot/%d/manifest", seq))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("repl: snapshot %d no longer on primary: %w", seq, snapshot.ErrCorrupt)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, drainError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return snapshot.DecodeManifest(raw, seq)
}

// RankBlob fetches one rank's snapshot payload and verifies it against the
// manifest's CRC pin before returning it.
func (c *Client) RankBlob(ctx context.Context, m *snapshot.Manifest, rank int) ([]byte, error) {
	if rank < 0 || rank >= len(m.RankFiles) {
		return nil, fmt.Errorf("repl: snapshot %d has no rank %d", m.AppliedSeq, rank)
	}
	resp, err := c.get(ctx, fmt.Sprintf("/repl/snapshot/%d/rank/%d", m.AppliedSeq, rank))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, drainError(resp)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if !m.RankFiles[rank].Matches(payload) {
		return nil, fmt.Errorf("repl: snapshot %d rank %d blob checksum mismatch in transit: %w",
			m.AppliedSeq, rank, snapshot.ErrCorrupt)
	}
	c.snapBytes.Add(int64(len(payload)))
	return payload, nil
}

// Frame fetches the next frame after sequence `after`, long-polling up to
// maxWait on the primary. A 410 maps to ErrGone — the follower must
// re-bootstrap.
func (c *Client) Frame(ctx context.Context, after uint64, maxBytes int, maxWait time.Duration) (*Frame, error) {
	path := "/repl/wal?from=" + strconv.FormatUint(after, 10)
	if maxBytes > 0 {
		path += "&max_bytes=" + strconv.Itoa(maxBytes)
	}
	if maxWait > 0 {
		path += "&wait_ms=" + strconv.FormatInt(maxWait.Milliseconds(), 10)
	}
	resp, err := c.get(ctx, path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, ErrGone
	}
	if resp.StatusCode != http.StatusOK {
		return nil, drainError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	f, err := DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	c.walBytes.Add(int64(len(b)))
	c.frames.Add(1)
	return f, nil
}
