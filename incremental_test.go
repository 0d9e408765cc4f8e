package tc2d

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tc2d/internal/snapshot"
)

// Incremental-maintenance tests: rebuilds forced at varying churn stay
// exact against the sequential oracle, and the cluster picks the
// churn-proportional pass exactly when the degree-dirty set is within
// incrementalFraction of N (the pass itself is checked against the full
// pipeline in internal/delta); delta-compressed snapshot chains must
// survive kills at arbitrary points and fall back past corrupt chain
// members; and the headline cost claims (≥5× fewer preprocessing ops for
// a small-churn rebuild, ≥10× fewer snapshot bytes at ~1% churn) are
// asserted, not just reported.

// runIncrementalDifferential streams randomized growth batches into one
// cluster, whose ranks spans places (see newTestCluster), and forces a
// rebuild after bursts of different lengths: the degree-dirty set at a
// rebuild spans small to sizeable churn, so the cluster takes both rebuild
// modes. Counts, totals and the folded layout must match the sequential
// oracle after every batch and every rebuild.
func runIncrementalDifferential(t *testing.T, opt Options, spans []int, scale, batches int, seed int64) {
	t.Helper()
	g, err := GenerateRMAT(G500, scale, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := newTestCluster(t, g, opt, spans)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(seed))
	o := newGrowOracle(g)
	intervals := []int{2, 5, 9}
	next, slot := intervals[0], 0
	for b := 0; b < batches; b++ {
		batch := growthBatch(rng, o)
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		o.apply(batch)
		checkGrowthState(t, "batch", cl, o, res)
		if b != next {
			continue
		}
		if err := cl.Rebuild(); err != nil {
			t.Fatalf("batch %d: rebuild: %v", b, err)
		}
		if info := cl.Info(); info.BaseN != info.N || info.OverflowN != 0 {
			t.Fatalf("batch %d: rebuild left BaseN=%d N=%d OverflowN=%d", b, info.BaseN, info.N, info.OverflowN)
		}
		q, err := cl.Count(QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := CountSequential(o.graph(t)); q.Triangles != want {
			t.Fatalf("batch %d: post-rebuild count %d, oracle %d", b, q.Triangles, want)
		}
		slot = (slot + 1) % len(intervals)
		next += intervals[slot]
	}
	if info := cl.Info(); info.IncrementalRebuilds == 0 || info.IncrementalRebuilds == info.Rebuilds {
		t.Errorf("%d of %d rebuilds ran incrementally, want both modes", info.IncrementalRebuilds, info.Rebuilds)
	}
	tr, err := cl.Transitivity()
	if err != nil {
		t.Fatal(err)
	}
	if want := Transitivity(o.graph(t)); math.Abs(tr-want) > 1e-12 {
		t.Errorf("transitivity %v, oracle %v", tr, want)
	}
}

func TestIncrementalRebuildDifferentialCannon(t *testing.T) {
	runIncrementalDifferential(t, Options{Ranks: 4}, nil, 11, 32, 41)
}

func TestIncrementalRebuildDifferentialSUMMA(t *testing.T) {
	runIncrementalDifferential(t, Options{Ranks: 6}, nil, 11, 32, 42)
}

func TestIncrementalRebuildDifferentialCannonTCP(t *testing.T) {
	runIncrementalDifferential(t, Options{Ranks: 4}, []int{2, 2}, 11, 30, 43)
}

func TestIncrementalRebuildDifferentialSUMMATCP(t *testing.T) {
	runIncrementalDifferential(t, Options{Ranks: 6}, []int{3, 3}, 11, 30, 44)
}

func TestIncrementalRebuildDifferentialSingleRank(t *testing.T) {
	runIncrementalDifferential(t, Options{Ranks: 1}, nil, 11, 30, 45)
}

// TestRebuildModeFollowsDirtyFraction pins the rebuild-mode choice: a
// Rebuild whose degree-dirty set is within incrementalFraction of N runs
// the incremental pass, one past it the full pipeline. Both must leave the
// counts exact and the overflow folded; the passes themselves are checked
// against each other in internal/delta.
func TestRebuildModeFollowsDirtyFraction(t *testing.T) {
	g, err := GenerateRMAT(G500, 10, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(76))
	o := newGrowOracle(g)
	m := float64(g.NumEdges())
	for _, tc := range []struct {
		name        string
		updates     float64 // each touches at most two labels
		incremental bool
	}{
		{"under", incrementalFraction * float64(g.N) / 4, true},
		{"over", 2 * incrementalFraction * float64(g.N), false},
	} {
		batch := churnBatch(rng, o, tc.updates/m)
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		o.apply(batch)
		checkGrowthState(t, tc.name, cl, o, res)
		before := cl.Info()
		if err := cl.Rebuild(); err != nil {
			t.Fatal(err)
		}
		info := cl.Info()
		if info.Rebuilds != before.Rebuilds+1 {
			t.Fatalf("%s: Rebuilds %d -> %d, want one more", tc.name, before.Rebuilds, info.Rebuilds)
		}
		if inc := info.IncrementalRebuilds - before.IncrementalRebuilds; inc != 0 != tc.incremental {
			t.Fatalf("%s: %d-update churn ran %d incremental rebuilds, want incremental=%v",
				tc.name, len(batch), inc, tc.incremental)
		}
		if info.BaseN != info.N {
			t.Fatalf("%s: rebuild left BaseN=%d N=%d", tc.name, info.BaseN, info.N)
		}
		q, err := cl.Count(QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := CountSequential(o.graph(t)); q.Triangles != want {
			t.Fatalf("%s: post-rebuild count %d, oracle %d", tc.name, q.Triangles, want)
		}
	}
}

// churnBatch builds ~frac·M edge mutations (half deletions of existing
// edges, half insertions of absent ones) over the current vertex space —
// pure edge churn, no growth, so the dirty set stays proportional to it.
func churnBatch(rng *rand.Rand, o *growOracle, frac float64) []EdgeUpdate {
	target := int(frac * float64(len(o.edges)))
	if target < 2 {
		target = 2
	}
	existing := make([][2]int32, 0, len(o.edges))
	for e := range o.edges {
		existing = append(existing, e)
	}
	rng.Shuffle(len(existing), func(i, j int) { existing[i], existing[j] = existing[j], existing[i] })
	var batch []EdgeUpdate
	touched := map[[2]int32]bool{}
	for _, e := range existing[:target/2] {
		touched[e] = true
		batch = append(batch, EdgeUpdate{U: e[0], V: e[1], Op: UpdateDelete})
	}
	for len(batch) < target {
		u, v := int32(rng.Intn(int(o.n))), int32(rng.Intn(int(o.n)))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int32{u, v}
		if o.edges[k] || touched[k] {
			continue
		}
		touched[k] = true
		batch = append(batch, EdgeUpdate{U: u, V: v, Op: UpdateInsert})
	}
	return batch
}

// TestIncrementalRebuildOpsSavings is the headline cost acceptance: at
// churn small enough for the incremental pass (its degree-dirty set within
// incrementalFraction of N) an incremental rebuild must perform at least 5×
// fewer preprocessing operations than the full pipeline did at build time,
// with the savings visible through the mode-labeled metrics.
func TestIncrementalRebuildOpsSavings(t *testing.T) {
	g, err := GenerateRMAT(G500, 12, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	buildOps := cl.Info().PreOps
	if buildOps <= 0 {
		t.Fatalf("build reported PreOps=%d", buildOps)
	}

	rng := rand.New(rand.NewSource(77))
	o := newGrowOracle(g)
	batch := churnBatch(rng, o, incrementalFraction*float64(g.N)/4/float64(g.NumEdges()))
	res, err := cl.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	o.apply(batch)
	checkGrowthState(t, "churn", cl, o, res)

	if err := cl.Rebuild(); err != nil {
		t.Fatal(err)
	}
	info := cl.Info()
	if info.IncrementalRebuilds != 1 {
		t.Fatalf("IncrementalRebuilds=%d after one small-churn rebuild", info.IncrementalRebuilds)
	}
	incOps := info.PreOps
	if incOps <= 0 {
		t.Fatalf("incremental rebuild reported PreOps=%d", incOps)
	}
	if buildOps < 5*incOps {
		t.Fatalf("incremental rebuild after %d updates: %d ops vs %d at build — less than the required 5× saving",
			len(batch), incOps, buildOps)
	}
	t.Logf("preprocessing ops: full build %d, incremental rebuild %d (%.1fx fewer, %d edge churn)",
		buildOps, incOps, float64(buildOps)/float64(incOps), len(batch))

	snap := cl.Metrics().Snapshot()
	if got := snap[`tc_rebuilds_total{mode="incremental"}`]; got != 1 {
		t.Errorf(`tc_rebuilds_total{mode="incremental"}=%v, want 1`, got)
	}
	if got := snap["tc_rebuild_saved_ops_total"]; got != float64(buildOps-incOps) {
		t.Errorf("tc_rebuild_saved_ops_total=%v, want %d", got, buildOps-incOps)
	}

	// The rebuilt layout still answers exactly.
	want := CountSequential(o.graph(t))
	qres, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qres.Triangles != want {
		t.Fatalf("post-rebuild count %d, oracle %d", qres.Triangles, want)
	}
}

// baseSnapshotBytes sums the per-rank blobs of the boot (base) snapshot.
func baseSnapshotBytes(t *testing.T, dir string) int64 {
	t.Helper()
	blobs, err := filepath.Glob(filepath.Join(dir, "snap-*", "rank-*.bin"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("base snapshot blobs %v err %v", blobs, err)
	}
	var total int64
	for _, b := range blobs {
		st, err := os.Stat(b)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// TestDeltaSnapshotBytes is the snapshot-side cost acceptance: after a small
// update, the next snapshot must be a delta chained off the boot base, at
// least 10× smaller than the base, and visible in the delta metrics and the
// durability info.
func TestDeltaSnapshotBytes(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 12, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	baseBytes := baseSnapshotBytes(t, dir)

	rng := rand.New(rand.NewSource(78))
	o := newGrowOracle(g)
	batch := churnBatch(rng, o, 0.01)
	if _, err := cl.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	o.apply(batch)

	info, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != snapshot.KindDelta || info.ChainLen != 1 {
		t.Fatalf("snapshot after small churn: kind=%q chainLen=%d, want a first delta", info.Kind, info.ChainLen)
	}
	if info.Bytes <= 0 || info.Bytes*10 > baseBytes {
		t.Fatalf("delta snapshot %d bytes vs base %d — less than the required 10× saving", info.Bytes, baseBytes)
	}
	t.Logf("snapshot bytes: base %d, delta %d (%.1fx smaller, %d edge churn)",
		baseBytes, info.Bytes, float64(baseBytes)/float64(info.Bytes), len(batch))

	snap := cl.Metrics().Snapshot()
	if got := snap["tc_snapshot_delta_writes_total"]; got != 1 {
		t.Errorf("tc_snapshot_delta_writes_total=%v, want 1", got)
	}
	pi := cl.Info().Persist
	if pi.DeltaSnapshots != 1 || pi.ChainLen != 1 {
		t.Errorf("persist info deltas=%d chainLen=%d, want 1/1", pi.DeltaSnapshots, pi.ChainLen)
	}

	// The delta-restored state must answer exactly.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	cl2, err := OpenCluster(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	checkRestored(t, "delta restore", cl2, o)
}

// TestSnapshotChainCompaction drives the chain policy end to end: deltas
// accumulate up to the chain limit, the next snapshot compacts to a fresh
// base, and a full rebuild forces the next snapshot to be a base regardless
// of chain length (a delta cannot express the block swap).
func TestSnapshotChainCompaction(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 8, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	// One growth batch per snapshot stays far below every policy threshold:
	// no auto-snapshot, no staleness rebuild, and no compaction forced by
	// churn — only the chain limit and the explicit Rebuild shape the chain.
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(79))
	o := newGrowOracle(g)
	step := func() *SnapshotInfo {
		t.Helper()
		batch := growthBatch(rng, o)
		if _, err := cl.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		o.apply(batch)
		info, err := cl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return info
	}

	// Four deltas fill the chain; the fifth snapshot compacts to a base.
	for i := 1; i <= 4; i++ {
		if info := step(); info.Kind != snapshot.KindDelta || info.ChainLen != i {
			t.Fatalf("snapshot %d: kind=%q chainLen=%d, want delta %d", i, info.Kind, info.ChainLen, i)
		}
	}
	if info := step(); info.Kind != snapshot.KindBase || info.ChainLen != 0 {
		t.Fatalf("snapshot at chain limit: kind=%q chainLen=%d, want a compacted base", info.Kind, info.ChainLen)
	}
	// A new chain grows off the fresh base.
	if info := step(); info.Kind != snapshot.KindDelta || info.ChainLen != 1 {
		t.Fatalf("snapshot after compaction: kind=%q chainLen=%d, want delta 1", info.Kind, info.ChainLen)
	}

	// A full rebuild swaps the resident blocks: the next snapshot must be a
	// base even though the chain has room. Six batches dirtied more than
	// incrementalFraction of the labels, so Rebuild runs the full pipeline.
	if err := cl.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if info := cl.Info(); info.Rebuilds != 1 || info.IncrementalRebuilds != 0 {
		t.Fatalf("Rebuilds=%d IncrementalRebuilds=%d, want one full rebuild", info.Rebuilds, info.IncrementalRebuilds)
	}
	if info := step(); info.Kind != snapshot.KindBase || info.ChainLen != 0 {
		t.Fatalf("snapshot after full rebuild: kind=%q chainLen=%d, want a forced base", info.Kind, info.ChainLen)
	}
	checkRestored(t, "after compaction rounds", cl, o)
}

// runChainKillRecovery is the chain durability differential: a stream with
// explicit snapshots (building delta chains) and forced rebuilds, killed at
// a random point — possibly right after a base, mid-chain, or just after a
// compaction — must reopen to the exact oracle state, keep accepting the
// stream, and survive a second restart. The graph's scale decides the
// rebuild mode: incremental says whether the forced rebuilds' degree-dirty
// sets stay within incrementalFraction of N.
func runChainKillRecovery(t *testing.T, opt Options, scale, batches int, incremental bool, seed int64) {
	t.Helper()
	dir := t.TempDir()
	opt.PersistDir = dir
	g, err := GenerateRMAT(G500, scale, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, opt)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	o := newGrowOracle(g)
	killAt := 1 + rng.Intn(batches)
	for b := 0; b < killAt; b++ {
		batch := growthBatch(rng, o)
		res, err := cl.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		o.apply(batch)
		checkGrowthState(t, "pre-kill batch", cl, o, res)
		if b%2 == 1 {
			if _, err := cl.Snapshot(); err != nil {
				t.Fatalf("batch %d: snapshot: %v", b, err)
			}
		}
		if b%7 == 5 {
			if err := cl.Rebuild(); err != nil {
				t.Fatalf("batch %d: rebuild: %v", b, err)
			}
		}
	}
	if info := cl.Info(); info.Rebuilds > 0 && (info.IncrementalRebuilds == info.Rebuilds) != incremental {
		t.Fatalf("%d of %d rebuilds ran incrementally, want incremental=%v", info.IncrementalRebuilds, info.Rebuilds, incremental)
	}
	cl.killForTest()

	cl2, err := OpenCluster(dir, opt)
	if err != nil {
		t.Fatalf("OpenCluster after kill at batch %d: %v", killAt, err)
	}
	checkRestored(t, "chain restore", cl2, o)

	// The stream continues — snapshots keep chaining off the restored base —
	// and a clean restart lands on the exact state again.
	for b := 0; b < 5; b++ {
		batch := growthBatch(rng, o)
		res, err := cl2.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("post-restore batch %d: %v", b, err)
		}
		o.apply(batch)
		checkGrowthState(t, "post-restore batch", cl2, o, res)
		if b%2 == 0 {
			if _, err := cl2.Snapshot(); err != nil {
				t.Fatalf("post-restore snapshot %d: %v", b, err)
			}
		}
	}
	if err := cl2.Close(); err != nil {
		t.Fatal(err)
	}
	cl3, err := OpenCluster(dir, opt)
	if err != nil {
		t.Fatalf("second OpenCluster: %v", err)
	}
	defer cl3.Close()
	checkRestored(t, "second restart", cl3, o)
}

func TestChainKillRecoveryCannon(t *testing.T) {
	runChainKillRecovery(t, Options{Ranks: 4}, 12, 14, true, 201)
}

func TestChainKillRecoverySUMMA(t *testing.T) {
	runChainKillRecovery(t, Options{Ranks: 6}, 8, 14, false, 202)
}

func TestChainKillRecoverySingleRank(t *testing.T) {
	runChainKillRecovery(t, Options{Ranks: 1}, 12, 12, true, 203)
}

// TestOpenClusterCorruptDeltaFallsBack: a damaged delta blob must fail the
// chain's CRC, evict the unusable snapshot, and fall back to its base —
// whose longer WAL tail replays to the exact same state.
func TestOpenClusterCorruptDeltaFallsBack(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 9, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Ranks: 4, PersistDir: dir}
	cl, err := NewCluster(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	o := newGrowOracle(g)
	rng := rand.New(rand.NewSource(56))
	apply := func(n int) {
		for i := 0; i < n; i++ {
			batch := growthBatch(rng, o)
			if _, err := cl.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			o.apply(batch)
		}
	}
	apply(4)
	dinfo, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if dinfo.Kind != snapshot.KindDelta {
		t.Fatalf("snapshot kind %q, want a delta chained off the boot base", dinfo.Kind)
	}
	apply(3)
	cl.killForTest()

	// Corrupt one rank blob of the delta snapshot.
	path := filepath.Join(dinfo.Path, "rank-0002.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xA5
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cl2, err := OpenCluster(dir, opt)
	if err != nil {
		t.Fatalf("OpenCluster with corrupt delta: %v", err)
	}
	defer cl2.Close()
	if rep := cl2.Info().Persist.ReplayedBatches; rep != 7 {
		t.Fatalf("fallback replayed %d batches, want all 7 from the base", rep)
	}
	checkRestored(t, "delta fallback", cl2, o)
	if _, err := os.Stat(dinfo.Path); !os.IsNotExist(err) {
		t.Fatalf("corrupt delta snapshot %s survived the fallback (stat err=%v)", dinfo.Path, err)
	}
}
