package tc2d

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tc2d/internal/obs"
)

// Observability tests: the cluster's registry must expose the full
// cross-layer series set through a valid Prometheus text payload, and the
// traced entry points must return span trees whose phase durations nest
// consistently inside the measured wall time.

// exerciseCluster drives one of everything that publishes metrics: two
// counts, a transitivity query, an update batch, and — when the cluster is
// durable — a snapshot.
func exerciseCluster(t *testing.T, cl *Cluster, durable bool) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, err := cl.Count(QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Transitivity(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 1, V: 2}, {U: 3, V: 5}, {U: 2, V: 9}}); err != nil {
		t.Fatal(err)
	}
	if durable {
		if _, err := cl.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterMetricsExposition: after one of each operation, the registry's
// exposition must parse under the strict validator and cover every
// subsystem — ≥ 25 distinct families spanning query latency, scheduler,
// kernel, per-rank epoch accounting and durability I/O.
func TestClusterMetricsExposition(t *testing.T) {
	g := testClusterGraph(t)
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	exerciseCluster(t, cl, true)

	cl.Info() // refresh the graph gauges, as tcd's scrape handler does
	var buf bytes.Buffer
	n, err := cl.Metrics().Expose(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Expose wrote no series")
	}
	p, err := parseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition did not validate: %v\n%s", err, buf.String())
	}
	fams := p.families()
	if len(fams) < 25 {
		t.Errorf("exposed %d families, want >= 25: %v", len(fams), fams)
	}
	// One anchor series per subsystem; a missing one means a whole layer
	// went dark.
	for _, series := range []string{
		`tc_queries_total{op="count"}`,
		`tc_queries_total{op="transitivity"}`,
		`tc_queries_total{op="update"}`,
		`tc_queries_total{op="snapshot"}`,
		`tc_query_seconds_count{op="count"}`,
		"tc_sched_admission_wait_seconds_count",
		"tc_sched_write_epochs_total",
		"tc_sched_absorbed_batches_total",
		"tc_sched_queue_depth",
		"tc_graph_vertices",
		"tc_graph_triangles",
		"tc_kernel_steps_total",
		"tc_kernel_probes_total",
		"tc_kernel_map_tasks_total",
		"tc_splice_moved_bytes_total",
		"tc_splice_reallocs_total",
		`tc_mpi_epochs_total{kind="read"}`,
		`tc_mpi_epochs_total{kind="write"}`,
		`tc_mpi_rank_comm_seconds_total{rank="0"}`,
		`tc_mpi_rank_comp_seconds_total{rank="3"}`,
		"tc_wal_appends_total",
		"tc_wal_bytes_total",
		"tc_wal_fsync_seconds_count",
		"tc_snapshot_writes_total",
		"tc_snapshot_seconds_count",
		"tc_snapshot_last_seq",
	} {
		if !p.has(series) {
			t.Errorf("series %s missing from exposition", series)
		}
	}
	// The registry speaks real seconds: a rank is either blocked (in a
	// primitive, or waiting for a slot or for its peers to finish) or
	// running, so the two add up to the time the epochs took.
	epochs := p.Series[`tc_mpi_epoch_seconds_sum{kind="read"}`] + p.Series[`tc_mpi_epoch_seconds_sum{kind="write"}`]
	for r := 0; r < 4; r++ {
		rank := fmt.Sprintf(`{rank="%d"}`, r)
		got := p.Series["tc_mpi_rank_comm_seconds_total"+rank] + p.Series["tc_mpi_rank_comp_seconds_total"+rank]
		if epochs <= 0 || math.Abs(got-epochs) > 0.1*epochs {
			t.Errorf("rank %d: comm + comp = %v s, want within 10%% of the %v s its epochs took", r, got, epochs)
		}
	}
	if p.has(`tc_mpi_rank_wall_comp_seconds_total{rank="0"}`) {
		t.Error("tc_mpi_rank_wall_comp_seconds_total is still exposed beside tc_mpi_rank_comp_seconds_total")
	}
	if got := p.Series[`tc_queries_total{op="count"}`]; got != 2 {
		t.Errorf("tc_queries_total{op=count} = %v, want 2", got)
	}
	if got := p.Series["tc_snapshot_writes_total"]; got < 1 {
		t.Errorf("tc_snapshot_writes_total = %v, want >= 1", got)
	}
	if got := p.Series["tc_graph_vertices"]; got != float64(cl.Info().N) {
		t.Errorf("tc_graph_vertices = %v, want %d", got, cl.Info().N)
	}
}

// TestClusterSharedRegistry: a caller-supplied Options.Metrics registry is
// the one the cluster publishes into, and Metrics() returns it.
func TestClusterSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	g := testClusterGraph(t)
	cl, err := NewCluster(g, Options{Ranks: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Metrics() != reg {
		t.Fatal("Metrics() did not return the caller's registry")
	}
	if _, err := cl.Count(QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap[`tc_queries_total{op="count"}`] != 1 {
		t.Fatalf("caller registry did not receive the count: %v", snap)
	}
	if snap["tc_kernel_steps_total"] == 0 {
		t.Fatal("caller registry did not receive kernel steps")
	}
}

// TestCountTracedSpanTree: the traced count's span tree must mirror the
// epoch structure — admission and epoch under the root, one rank span per
// rank under the epoch, per-step kernel/comm phases under each rank — and
// every level's children must fit inside their parent's measured wall time
// (children of one rank run sequentially, so their durations sum to at
// most the rank span's).
func TestCountTracedSpanTree(t *testing.T) {
	g := testClusterGraph(t)
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want, err := cl.Count(QueryOptions{}) // warm: resident state built
	if err != nil {
		t.Fatal(err)
	}

	res, tr, err := cl.CountTraced(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want.Triangles {
		t.Fatalf("traced count %d != untraced %d", res.Triangles, want.Triangles)
	}
	root := decodeSpans(t, tr.Span())
	if root.Name != "count" {
		t.Fatalf("root span = %+v, want name count", root)
	}
	adm, epoch := root.find("admission"), root.find("epoch")
	if adm == nil || epoch == nil {
		t.Fatal("trace lacks admission/epoch spans")
	}
	if sum := adm.duration() + epoch.duration(); sum > root.duration()+time.Millisecond {
		t.Errorf("admission+epoch = %v exceeds root wall %v", sum, root.duration())
	}

	ranks := epoch.findAll("rank")
	if len(ranks) != 4 {
		t.Fatalf("epoch has %d rank spans, want 4", len(ranks))
	}
	phases := []string{"align", "kernel", "shift", "bcast", "reduce"}
	for i, rk := range ranks {
		if rk.duration() > epoch.duration()+time.Millisecond {
			t.Errorf("rank span %d (%v) exceeds epoch wall %v", i, rk.duration(), epoch.duration())
		}
		if len(rk.findAll("kernel")) == 0 {
			t.Errorf("rank span %d has no kernel step spans", i)
		}
		var phaseSum time.Duration
		for _, ph := range phases {
			for _, sp := range rk.findAll(ph) {
				phaseSum += sp.duration()
			}
		}
		// Phase spans run back to back inside one rank goroutine: their sum
		// must fit in the rank span's wall time (small slack for the clock
		// reads between spans), and — the useful direction — they must
		// account for the bulk of it: large uninstrumented gaps would make
		// the trace lie about where the time went.
		if phaseSum > rk.duration()+time.Millisecond {
			t.Errorf("rank %d phase sum %v exceeds rank wall %v", i, phaseSum, rk.duration())
		}
		if gap := rk.duration() - phaseSum; gap > rk.duration()/2+10*time.Millisecond {
			t.Errorf("rank %d has %v of untraced time (rank wall %v, phases %v)",
				i, gap, rk.duration(), phaseSum)
		}
	}

	// The wire form must carry the tree: names, durations, nested children.
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"trace_id"`, `"name":"count"`, `"name":"epoch"`, `"name":"rank"`, `"duration_ms"`} {
		if !strings.Contains(string(raw), frag) {
			t.Errorf("trace JSON lacks %s: %s", frag, raw)
		}
	}
}

// spanNode is a span as its JSON wire form renders it, the form tcd's
// ?trace=1 answers with and the benchmark reads.
type spanNode struct {
	Name       string      `json:"name"`
	DurationMS float64     `json:"duration_ms"`
	Children   []*spanNode `json:"children"`
}

func decodeSpans(t *testing.T, s *obs.Span) *spanNode {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var n *spanNode
	if err := json.Unmarshal(raw, &n); err != nil || n == nil {
		t.Fatalf("span JSON %s: %v", raw, err)
	}
	return n
}

func (n *spanNode) duration() time.Duration {
	return time.Duration(n.DurationMS * float64(time.Millisecond))
}

// findAll returns every span of n's subtree named name, depth first.
func (n *spanNode) findAll(name string) []*spanNode {
	var hits []*spanNode
	if n.Name == name {
		hits = append(hits, n)
	}
	for _, c := range n.Children {
		hits = append(hits, c.findAll(name)...)
	}
	return hits
}

func (n *spanNode) find(name string) *spanNode {
	if hits := n.findAll(name); len(hits) > 0 {
		return hits[0]
	}
	return nil
}

// TestApplyUpdatesTraced: the write path's trace brackets the shared
// scheduler work — queue wait, the write epoch itself, and (durable
// clusters) the WAL append.
func TestApplyUpdatesTraced(t *testing.T) {
	g := testClusterGraph(t)
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, tr, err := cl.ApplyUpdatesTraced([]EdgeUpdate{{U: 0, V: 1}, {U: 4, V: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result from traced update")
	}
	root := decodeSpans(t, tr.Span())
	for _, name := range []string{"queue_wait", "write_epoch", "wal_append"} {
		sp := root.find(name)
		if sp == nil {
			t.Errorf("update trace lacks %s span", name)
			continue
		}
		if sp.duration() > root.duration()+time.Millisecond {
			t.Errorf("%s span %v exceeds trace wall %v", name, sp.duration(), root.duration())
		}
	}
}

// TestSnapshotTraced: the snapshot trace covers the encode epoch, the
// manifest commit, and the WAL rotation.
func TestSnapshotTraced(t *testing.T) {
	g := testClusterGraph(t)
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 2, V: 6}}); err != nil {
		t.Fatal(err)
	}
	before := cl.Metrics().Snapshot()["tc_snapshot_writes_total"]

	info, tr, err := cl.SnapshotTraced()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Seq == 0 && info.Bytes == 0 {
		t.Fatalf("implausible snapshot info %+v", info)
	}
	root := decodeSpans(t, tr.Span())
	for _, name := range []string{"encode_write", "commit", "rotate"} {
		if root.find(name) == nil {
			t.Errorf("snapshot trace lacks %s span", name)
		}
	}
	snap := cl.Metrics().Snapshot()
	if got := snap["tc_snapshot_writes_total"] - before; got != 1 {
		t.Errorf("tc_snapshot_writes_total delta = %v, want 1", got)
	}
	if snap["tc_snapshot_last_seq"] != float64(info.Seq) {
		t.Errorf("tc_snapshot_last_seq = %v, want %d", snap["tc_snapshot_last_seq"], info.Seq)
	}
}

// TestRestoredClusterMetrics: a cluster reopened from disk publishes into a
// fresh registry — including the WAL batches replayed during restore — and
// keeps counting operations normally.
func TestRestoredClusterMetrics(t *testing.T) {
	dir := t.TempDir()
	g := testClusterGraph(t)
	opt := Options{Ranks: 4, PersistDir: dir}
	cl, err := NewCluster(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Land batches in the WAL after the snapshot so the restore replays.
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 1, V: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 2, V: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	cl2, err := OpenCluster(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	snap := cl2.Metrics().Snapshot()
	if got := snap["tc_wal_replayed_batches_total"]; got != 2 {
		t.Errorf("tc_wal_replayed_batches_total = %v, want 2", got)
	}
	if got := snap["tc_graph_vertices"]; got != float64(cl2.Info().N) {
		t.Errorf("restored tc_graph_vertices = %v, want %d", got, cl2.Info().N)
	}
	if _, err := cl2.Count(QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := cl2.Metrics().Snapshot()[`tc_queries_total{op="count"}`]; got != 1 {
		t.Errorf("restored cluster count queries = %v, want 1", got)
	}
}
