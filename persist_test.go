package tc2d

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/snapshot"
)

// Durability tests: a durable cluster killed at an arbitrary point of an
// update stream must reopen from its persistence directory — newest valid
// snapshot plus WAL-tail replay, zero preprocessing — with counts exactly
// equal to the sequential oracle and a from-scratch cluster on the mutated
// graph.

// killForTest simulates a process crash for the recovery tests: the writer
// goroutine is stopped, the world torn down, and the WAL file handle
// dropped WITHOUT the graceful-close sync — no final snapshot, no
// rotation — leaving the persistence directory exactly as a killed process
// would (appended records sit in the OS page cache, which survives the
// process; only a power cut would lose unsynced bytes).
func (cl *Cluster) killForTest() {
	s := cl.sched
	s.mu.Lock()
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.drainedCh
	s.gate.Lock()
	cl.closed.Store(true)
	cl.eng.close()
	if cl.persist != nil {
		cl.persist.wal.Close()
	}
	s.gate.Unlock()
}

// checkRestored compares a restored cluster against the oracle graph.
func checkRestored(t *testing.T, tag string, cl *Cluster, o *growOracle) {
	t.Helper()
	gm := o.graph(t)
	res, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatalf("%s: count on restored cluster: %v", tag, err)
	}
	if want := CountSequential(gm); res.Triangles != want {
		t.Fatalf("%s: restored cluster counts %d triangles, oracle %d", tag, res.Triangles, want)
	}
	info := cl.Info()
	if info.N != o.n {
		t.Fatalf("%s: restored N=%d, oracle %d", tag, info.N, o.n)
	}
	if info.M != gm.NumEdges() {
		t.Fatalf("%s: restored M=%d, oracle %d", tag, info.M, gm.NumEdges())
	}
	if info.Wedges != wedgesOf(gm) {
		t.Fatalf("%s: restored Wedges=%d, oracle %d", tag, info.Wedges, wedgesOf(gm))
	}
}

// runKillRecovery is the acceptance differential: stream randomized batches
// (edge churn, vertex arrivals and removals, occasional explicit snapshots)
// against a durable cluster, kill it at a random point, reopen from the
// persistence directory, and require exact agreement with the sequential
// oracle and a from-scratch cluster — with zero preprocessing on restore.
// The restored cluster then continues the stream and is restarted once
// more, proving the reopened WAL keeps accepting commits. spans places the
// killed cluster's ranks (see newTestCluster); the restores run in-process.
func runKillRecovery(t *testing.T, opt Options, spans []int, scale, batches int, seed int64) {
	t.Helper()
	dir := t.TempDir()
	opt.PersistDir = dir
	g, err := GenerateRMAT(G500, scale, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := newTestCluster(t, g, opt, spans)
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
		if b%4 == 2 {
			// Vertex removals ride their own batch (a batch may not remove
			// a vertex AND update its edges).
			rm := []EdgeUpdate{{U: int32(rng.Intn(int(o.n))), Op: UpdateRemoveVertex}}
			res, err := cl.ApplyUpdates(rm)
			if err != nil {
				t.Fatalf("batch %d remove: %v", b, err)
			}
			o.apply(rm)
			checkGrowthState(t, "pre-kill remove", cl, o, res)
		}
		if b%5 == 3 {
			if _, err := cl.Snapshot(); err != nil {
				t.Fatalf("batch %d: snapshot: %v", b, err)
			}
		}
	}
	cl.killForTest()

	// Reopen: newest valid snapshot + WAL-tail replay, no preprocessing.
	cl2, err := OpenCluster(dir, opt)
	if err != nil {
		t.Fatalf("OpenCluster after kill at batch %d: %v", killAt, err)
	}
	info := cl2.Info()
	if info.PreOps != 0 {
		t.Fatalf("restored cluster reports preprocessing (PreOps=%d) — the pipeline must not re-run", info.PreOps)
	}
	if !info.Persist.Enabled || info.Persist.Dir != dir {
		t.Fatalf("restored cluster persist info %+v", info.Persist)
	}
	checkRestored(t, "restored", cl2, o)

	// A from-scratch cluster over the mutated graph must agree too.
	fresh, err := NewCluster(o.graph(t), Options{Ranks: opt.Ranks})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fresh.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Close()
	rres, err := cl2.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Triangles != rres.Triangles {
		t.Fatalf("restored %d vs from-scratch %d triangles", rres.Triangles, fres.Triangles)
	}

	// The stream continues on the restored cluster; a second restart (a
	// clean one this time) must again land on the exact state.
	for b := 0; b < 5; b++ {
		batch := growthBatch(rng, o)
		res, err := cl2.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("post-restore batch %d: %v", b, err)
		}
		o.apply(batch)
		checkGrowthState(t, "post-restore batch", cl2, o, res)
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

func TestClusterKillRecoveryCannon(t *testing.T) {
	runKillRecovery(t, Options{Ranks: 4}, nil, 8, 14, 101)
}

func TestClusterKillRecoverySUMMA(t *testing.T) {
	runKillRecovery(t, Options{Ranks: 6}, nil, 8, 14, 102)
}

func TestClusterKillRecoveryCannonTCP(t *testing.T) {
	runKillRecovery(t, Options{Ranks: 4}, []int{2, 2}, 7, 12, 103)
}

func TestClusterKillRecoverySUMMATCP(t *testing.T) {
	runKillRecovery(t, Options{Ranks: 6}, []int{3, 3}, 7, 12, 104)
}

func TestClusterKillRecoverySingleRank(t *testing.T) {
	runKillRecovery(t, Options{Ranks: 1}, nil, 7, 12, 105)
}

// TestOpenClusterKeepsBlobLayout: the rank blobs are the only record of a
// state's grid, schedule and enumeration rule, so a directory written with a
// grid and schedule NewCluster no longer builds still opens on them and keeps
// them through a batch, a full rebuild and a snapshot-and-reopen. The inputs
// are hand-built: a 4-rank SUMMA world on 2×2 (square rank counts now always
// run Cannon), and the Cannon 2×2 ⟨i,j,k⟩ base blobs of the core package's
// compat corpus, which an older binary wrote, under a manifest that still
// carries the legacy enum/summa/qr/qc keys. The restore converts the ⟨i,j,k⟩
// state, so both are ⟨j,i,k⟩ states from the open on.
func TestOpenClusterKeepsBlobLayout(t *testing.T) {
	cases := []struct {
		name   string
		summa  bool
		seed   uint64                                // of the RMAT s8/ef8 graph
		blobs  func(t *testing.T, g *Graph) [][]byte // per rank
		legacy map[string]any                        // extra manifest keys, as older binaries wrote them
	}{
		{name: "summa2x2_jik", summa: true, seed: 37, blobs: summa2x2Blobs},
		{name: "cannon2x2_ijk", summa: false, seed: 3, blobs: compatBlobs("cannon4-ijk"),
			legacy: map[string]any{"enum": 1, "summa": false, "qr": 2, "qc": 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := GenerateRMAT(G500, 8, 8, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			writeHandBuiltSnapshot(t, dir, g, tc.blobs(t, g), tc.legacy)

			cl, err := OpenCluster(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			onLayout := func(tag string) {
				t.Helper()
				pr, err := cl.eng.(*localEngine).store.get(0)
				if err != nil {
					t.Fatal(err)
				}
				qr, qc, summa := pr.GridShape()
				if qr != 2 || qc != 2 || summa != tc.summa {
					t.Fatalf("%s: layout %d×%d SUMMA=%v, want 2×2 SUMMA=%v", tag, qr, qc, summa, tc.summa)
				}
			}
			o := newGrowOracle(g)
			checkRestored(t, "restore", cl, o)
			onLayout("restored")

			// Enough churn that the rebuild runs the full pipeline, which
			// re-derives the layout from the resident state.
			rng := rand.New(rand.NewSource(38))
			batch := churnBatch(rng, o, 2*incrementalFraction*float64(g.N)/float64(g.NumEdges()))
			res, err := cl.ApplyUpdates(batch)
			if err != nil {
				t.Fatal(err)
			}
			o.apply(batch)
			checkGrowthState(t, "batch", cl, o, res)
			onLayout("batch")
			if err := cl.Rebuild(); err != nil {
				t.Fatal(err)
			}
			if info := cl.Info(); info.Rebuilds != 1 || info.IncrementalRebuilds != 0 {
				t.Fatalf("Rebuilds=%d IncrementalRebuilds=%d, want one full rebuild", info.Rebuilds, info.IncrementalRebuilds)
			}
			checkRestored(t, "rebuild", cl, o)
			onLayout("rebuilt")

			// A snapshot this binary writes has no layout in its manifest;
			// the reopened cluster reads it back from the blobs.
			if _, err := cl.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			if cl, err = OpenCluster(dir, Options{}); err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			checkRestored(t, "reopen", cl, o)
			onLayout("reopened")
		})
	}
}

// summa2x2Blobs prepares g on a 4-rank 2×2 SUMMA grid and returns every
// rank's EncodePrepared blob.
func summa2x2Blobs(t *testing.T, g *Graph) [][]byte {
	t.Helper()
	const ranks = 4
	w := mpi.NewWorld(ranks, mpi.Config{ComputeSlots: 4})
	blobs := make([][]byte, ranks)
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		var gin *Graph
		if c.Rank() == 0 {
			gin = g
		}
		d, err := dgraph.ScatterGraph(c, 0, gin)
		if err != nil {
			return nil, err
		}
		pr, err := core.PrepareGrid(c, d, 2, 2, true, core.Options{})
		if err != nil {
			return nil, err
		}
		blobs[c.Rank()] = core.EncodePrepared(pr)
		return nil, nil
	})
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return blobs
}

// compatBlobs returns the base blobs of 4-rank configuration name of the
// core package's compat corpus, which were written over the RMAT s8/ef8/seed 3
// graph.
func compatBlobs(name string) func(t *testing.T, g *Graph) [][]byte {
	return func(t *testing.T, _ *Graph) [][]byte {
		t.Helper()
		blobs := make([][]byte, 4)
		for r := range blobs {
			b, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "compat", name+".r"+strconv.Itoa(r)+".base"))
			if err != nil {
				t.Fatal(err)
			}
			blobs[r] = b
		}
		return blobs
	}
}

// writeHandBuiltSnapshot publishes the rank blobs of graph g under dir as
// base snapshot 0, with extra merged into its manifest.
func writeHandBuiltSnapshot(t *testing.T, dir string, g *Graph, blobs [][]byte, extra map[string]any) {
	t.Helper()
	ranks := len(blobs)
	sw, err := snapshot.NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r, blob := range blobs {
		if err := sw.WriteRank(r, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(snapshot.Manifest{
		Ranks: ranks, Triangles: CountSequential(g), BaseM: g.NumEdges(), Kind: snapshot.KindBase,
	}); err != nil {
		t.Fatal(err)
	}
	if len(extra) == 0 {
		return
	}
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*", "MANIFEST.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("manifest of the hand-built snapshot: %v %v", paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]any{}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for k, v := range extra {
		fields[k] = v
	}
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSnapshotRestore is the deterministic core of the durability
// contract: snapshot, close, reopen, identical counts, zero preprocessing.
func TestClusterSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cl.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyUpdates([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}, {U: 1, V: 2, Op: UpdateInsert}, {U: 0, V: 2, Op: UpdateInsert}}); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq == 0 || info.Bytes == 0 {
		t.Fatalf("snapshot info %+v", info)
	}
	// Snapshot with no interleaving write is a no-op returning the same seq.
	info2, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Seq != info.Seq {
		t.Fatalf("idempotent snapshot seq %d, want %d", info2.Seq, info.Seq)
	}
	after, err := cl.Count(QueryOptions{})
	if err != nil {
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
	ci := cl2.Info()
	if ci.Ranks != 4 || ci.PreOps != 0 {
		t.Fatalf("restored info ranks=%d preOps=%d", ci.Ranks, ci.PreOps)
	}
	got, err := cl2.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != after.Triangles || got.Triangles <= want.Triangles {
		t.Fatalf("restored count %d, want %d (> base %d)", got.Triangles, after.Triangles, want.Triangles)
	}
}

// TestOpenClusterFallbackToPreviousSnapshot: a corrupt newest snapshot must
// fall back to the retained previous one, whose longer WAL tail replays to
// the exact same state.
func TestOpenClusterFallbackToPreviousSnapshot(t *testing.T) {
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
	rng := rand.New(rand.NewSource(55))
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
	sinfo, err := cl.Snapshot() // second snapshot; the initial one is the fallback
	if err != nil {
		t.Fatal(err)
	}
	apply(3)
	cl.killForTest()

	// Corrupt one rank blob of the newest snapshot.
	path := filepath.Join(sinfo.Path, "rank-0002.bin")
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
		t.Fatalf("OpenCluster with corrupt newest snapshot: %v", err)
	}
	defer cl2.Close()
	if rep := cl2.Info().Persist.ReplayedBatches; rep != 7 {
		t.Fatalf("fallback replayed %d batches, want all 7 from the initial snapshot", rep)
	}
	checkRestored(t, "fallback", cl2, o)
	// The verified-corrupt snapshot must be gone, so retention can never
	// evict the valid fallback in its favor.
	if _, err := os.Stat(sinfo.Path); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot %s survived the fallback (stat err=%v)", sinfo.Path, err)
	}
}

// TestOpenClusterCorruptSentinel: when every snapshot is damaged the load
// must fail with the typed sentinel — and never install partial state.
func TestOpenClusterCorruptSentinel(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 7, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cl.killForTest()

	blobs, err := filepath.Glob(filepath.Join(dir, "snap-*", "rank-*.bin"))
	if err != nil || len(blobs) != 4 {
		t.Fatalf("blobs %v err %v", blobs, err)
	}
	raw, err := os.ReadFile(blobs[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xFF
	if err := os.WriteFile(blobs[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCluster(dir, Options{}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("OpenCluster on corrupt state: err=%v, want ErrSnapshotCorrupt", err)
	}
}

// TestOpenClusterUnknownVersionSentinel: a snapshot written by a future
// format must be refused with the typed sentinel, not misread.
func TestOpenClusterUnknownVersionSentinel(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 7, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 1, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cl.killForTest()

	manifests, err := filepath.Glob(filepath.Join(dir, "snap-*", "MANIFEST.json"))
	if err != nil || len(manifests) != 1 {
		t.Fatalf("manifests %v err %v", manifests, err)
	}
	raw, err := os.ReadFile(manifests[0])
	if err != nil {
		t.Fatal(err)
	}
	mut := []byte(string(raw))
	mut = []byte(replaceOnce(t, string(mut), `"format_version": 1`, `"format_version": 999`))
	if err := os.WriteFile(manifests[0], mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCluster(dir, Options{}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("OpenCluster on future-format snapshot: err=%v, want ErrSnapshotCorrupt", err)
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	i := indexOf(s, old)
	if i < 0 {
		t.Fatalf("marker %q not found", old)
	}
	return s[:i] + new + s[i+len(old):]
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestOpenClusterNoSnapshot: an empty directory is not corruption — callers
// get the typed "build it fresh" signal.
func TestOpenClusterNoSnapshot(t *testing.T) {
	if _, err := OpenCluster(t.TempDir(), Options{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenCluster on empty dir: err=%v, want ErrNoSnapshot", err)
	}
}

// TestNewClusterRefusesExistingState: silently overwriting another
// cluster's persistence directory would be data loss.
func TestNewClusterRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 7, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 1, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(g, Options{Ranks: 1, PersistDir: dir}); err == nil {
		t.Fatal("NewCluster over an existing persistence directory succeeded")
	}
}

// TestNewClusterRecoversFromFirstBootCrash: a first boot killed between
// WAL creation and the initial snapshot publish leaves a WAL segment (and
// possibly a snapshot temp dir) but no published snapshot. OpenCluster
// correctly says ErrNoSnapshot; the fresh-build path must then clear the
// unusable artifacts and proceed, not brick the directory.
func TestNewClusterRecoversFromFirstBootCrash(t *testing.T) {
	dir := t.TempDir()
	w, err := snapshot.CreateWAL(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.MkdirAll(filepath.Join(dir, "snap-0000000000000000.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCluster(dir, Options{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenCluster on boot artifacts: err=%v, want ErrNoSnapshot", err)
	}
	g, err := GenerateRMAT(G500, 7, 8, 37)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 1, PersistDir: dir})
	if err != nil {
		t.Fatalf("NewCluster over first-boot crash artifacts: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if cl2, err := OpenCluster(dir, Options{}); err != nil {
		t.Fatalf("reopen after recovered first boot: %v", err)
	} else {
		cl2.Close()
	}
}

// TestAutoSnapshotTrigger: every batch churns more than snapshotFraction
// of the edges, so each drain pushes the WAL over the threshold and
// snapshots happen without any explicit call, supersede their WAL
// segments, and a reopen replays nothing.
func TestAutoSnapshotTrigger(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 8, 8, 19)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	o := newGrowOracle(g)
	rng := rand.New(rand.NewSource(66))
	for b := 0; b < 6; b++ {
		batch := churnBatch(rng, o, 1.2*snapshotFraction)
		if _, err := cl.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		o.apply(batch)
	}
	// The trigger fires after the drain, under the shared gate (so writers
	// are acked before the snapshot lands): wait for it to catch up.
	var info PersistInfo
	for wait := 0; ; wait++ {
		info = cl.Info().Persist
		if info.LastSnapshotSeq == info.WALSeq || wait > 200 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info.Snapshots < 2 {
		t.Fatalf("auto-snapshot never fired: %+v", info)
	}
	if info.LastSnapshotSeq != info.WALSeq {
		t.Fatalf("last snapshot at seq %d, WAL at %d — trigger should have caught up", info.LastSnapshotSeq, info.WALSeq)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Retention: at most 2 snapshots and their segments remain.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Fatalf("%d snapshots retained, want <= 2: %v", len(snaps), snaps)
	}

	cl2, err := OpenCluster(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if rep := cl2.Info().Persist.ReplayedBatches; rep != 0 {
		t.Fatalf("replayed %d batches despite up-to-date snapshot", rep)
	}
	checkRestored(t, "auto-snapshot", cl2, o)
}

// TestCloseDuringSnapshot: Close must wait for an in-flight Snapshot's
// encoding epoch instead of racing the rank goroutines; snapshots launched
// after Close observe ErrClosed.
func TestCloseDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 9, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := cl.Snapshot(); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("snapshot during close: %v", err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := cl.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close: err=%v, want ErrClosed", err)
	}
	// Whatever the race decided, the directory must reopen cleanly.
	cl2, err := OpenCluster(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl2.Close()
}

// TestSnapshotWithoutPersistDir: the API degrades loudly, not silently.
func TestSnapshotWithoutPersistDir(t *testing.T) {
	g, err := GenerateRMAT(G500, 7, 8, 29)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Snapshot(); err == nil {
		t.Fatal("Snapshot on a non-durable cluster succeeded")
	}
	if info := cl.Info().Persist; info.Enabled {
		t.Fatalf("persist info %+v on a non-durable cluster", info)
	}
}

// FuzzDecodeBatch: any WAL record payload is either rejected with an error
// wrapping ErrSnapshotCorrupt, or decodes to a batch that re-encodes to
// exactly those bytes — never a panic.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch(nil))
	f.Add(encodeBatch([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}}))
	f.Add(encodeBatch([]EdgeUpdate{
		{U: 3, V: 9, Op: UpdateDelete}, {U: 4, Op: UpdateAddVertices},
		{U: 7, Op: UpdateRemoveVertex}, {U: 1 << 30, V: 2, Op: UpdateInsert},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		batch, err := decodeBatch(b)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrSnapshotCorrupt", err)
			}
			return
		}
		if !bytes.Equal(encodeBatch(batch), b) {
			t.Fatal("accepted payload does not re-encode to itself")
		}
	})
}

// TestSnapshotAfterFailedCommitIsBase: the encode epoch resets the ranks'
// dirty sets, so when a snapshot's commit fails after that epoch the next
// snapshot must be a base (a delta would lack the churn the failed one
// captured), and the cluster restored from it must match the oracle. The
// commit fails before it publishes anything, or after its rename, as when
// the directory sync that makes the new name durable fails: either way the
// WAL is kept, so a crash right after the failed commit (a copy of the
// directory, reopened) restores every acknowledged write.
func TestSnapshotAfterFailedCommitIsBase(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit func(*snapshot.Writer, snapshot.Manifest) error
	}{
		{"before publishing", func(*snapshot.Writer, snapshot.Manifest) error {
			return errors.New("injected commit failure")
		}},
		{"after the rename", func(w *snapshot.Writer, m snapshot.Manifest) error {
			if err := w.Commit(m); err != nil {
				return err
			}
			return errors.New("injected directory sync failure")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g, err := GenerateRMAT(G500, 8, 8, 7)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir, NoWALSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			oracle := newEdgeOracle(g)
			write := func(batch []EdgeUpdate) {
				t.Helper()
				if _, err := cl.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				oracle.apply(batch)
			}
			restoresOracle := func(tag, dir string) {
				t.Helper()
				re, err := OpenCluster(dir, Options{})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				defer re.Close()
				got, err := re.Count(QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if want := CountSequential(oracle.graph(t)); got.Triangles != want {
					t.Fatalf("%s: restored count %d, oracle %d", tag, got.Triangles, want)
				}
			}
			write([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}, {U: 1, V: 2, Op: UpdateInsert}, {U: 0, V: 2, Op: UpdateInsert}})
			if info, err := cl.Snapshot(); err != nil || info.Kind != snapshot.KindDelta {
				t.Fatalf("first snapshot after the base: %+v, err=%v, want a delta", info, err)
			}

			write([]EdgeUpdate{{U: 3, V: 4, Op: UpdateInsert}, {U: 4, V: 5, Op: UpdateInsert}, {U: 3, V: 5, Op: UpdateInsert}})
			commitSnapshot = tc.commit
			_, err = cl.Snapshot()
			commitSnapshot = (*snapshot.Writer).Commit
			if err == nil {
				t.Fatal("snapshot with a failing commit succeeded")
			}
			before := CountSequential(oracle.graph(t))
			write([]EdgeUpdate{{U: 6, V: 7, Op: UpdateInsert}, {U: 7, V: 8, Op: UpdateInsert}, {U: 6, V: 8, Op: UpdateInsert}})
			if CountSequential(oracle.graph(t)) == before {
				t.Fatal("the write after the failed commit adds no triangle; the WAL's part is not exercised")
			}
			crashed := t.TempDir()
			if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			restoresOracle("crash after the failed commit", crashed)

			info, err := cl.Snapshot()
			if err != nil || info.Kind != snapshot.KindBase {
				t.Fatalf("snapshot after the failed commit: %+v, err=%v, want a base", info, err)
			}
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			restoresOracle("reopen", dir)
		})
	}
}

// TestSnapshotAndRestoreEpochs: a snapshot is one read epoch, and restoring a
// base + two-delta chain with an empty WAL tail is one write epoch, read off
// tc_mpi_epochs_total.
func TestSnapshotAndRestoreEpochs(t *testing.T) {
	dir := t.TempDir()
	g, err := GenerateRMAT(G500, 8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, Options{Ranks: 4, PersistDir: dir, NoWALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	epochs := func(cl *Cluster, kind string) float64 {
		return cl.Metrics().Snapshot()[`tc_mpi_epochs_total{kind="`+kind+`"}`]
	}
	var info *SnapshotInfo
	for i, batch := range [][]EdgeUpdate{
		{{U: 0, V: 1, Op: UpdateInsert}, {U: 1, V: 2, Op: UpdateInsert}},
		{{U: 0, V: 2, Op: UpdateInsert}, {U: 3, V: 4, Op: UpdateInsert}},
	} {
		if _, err := cl.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		reads, writes := epochs(cl, "read"), epochs(cl, "write")
		if info, err = cl.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := epochs(cl, "read") - reads; got != 1 {
			t.Errorf("snapshot %d ran %v read epochs, want 1", i, got)
		}
		if got := epochs(cl, "write") - writes; got != 0 {
			t.Errorf("snapshot %d ran %v write epochs, want 0", i, got)
		}
	}
	if info.Kind != snapshot.KindDelta || info.ChainLen != 2 {
		t.Fatalf("newest snapshot %+v, want the second delta of a chain", info)
	}
	want, err := cl.Count(QueryOptions{})
	if err != nil {
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
	if got := epochs(cl2, "write"); got != 1 {
		t.Errorf("OpenCluster over a base + 2-delta chain ran %v write epochs, want 1", got)
	}
	if ri := cl2.Info().Persist; !ri.Enabled || ri.ReplayedBatches != 0 {
		t.Errorf("restore replayed a WAL tail: %+v", ri)
	}
	got, err := cl2.Count(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.Triangles {
		t.Fatalf("restored count %d, want %d", got.Triangles, want.Triangles)
	}
}
