package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/prepare_golden.json from the pipeline under test")

const goldenPath = "testdata/prepare_golden.json"

// goldenEntry is what one (graph, world, enumeration) run of the pipeline
// must reproduce: the SHA-256 of every rank's EncodePrepared blob — labels,
// U/L/task blocks and maxURow, bit for bit; for a Cannon state, which keeps
// no L block, of the blob with the L block it reads (parentBlob); with the
// rule byte of the rule the state was built for — and an upper bound on the
// preprocessing op count.
type goldenEntry struct {
	PreOps int64    `json:"pre_ops"`
	Ranks  []string `json:"ranks"`
}

// goldenGraphs are the inputs of the differential test. The two small ones
// exist for the zero-length paths of exact-size buffers: on 9 ranks "tri3"
// leaves six ranks without a vertex and most destinations without a pair,
// and "sparse7" has isolated vertices and fewer vertices than ranks.
func goldenGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	flat, err := rmat.ErdosRenyi(1500, 9000, 11)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := graph.FromEdges(7, []graph.Edge{{U: 0, V: 5}, {U: 5, V: 6}, {U: 0, V: 6}, {U: 2, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"rmat-s10": mustRMAT(t, rmat.G500, 10, 8, 42),
		"flat":     flat,
		"tri3":     tri,
		"sparse7":  sparse,
	}
}

// goldenWorlds are the world shapes: Cannon on 4 and 9 ranks, SUMMA on 2×3.
var goldenWorlds = []struct {
	name   string
	p      int
	qr, qc int // 0 = Cannon
}{
	{"cannon4", 4, 0, 0},
	{"summa2x3", 6, 2, 3},
	{"cannon9", 9, 0, 0},
}

// prepareOn scatters g and runs the pipeline on this rank for the given
// rule: the SUMMA one on a qr × qc grid, the Cannon one when qr is 0.
func prepareOn(c *mpi.Comm, g *graph.Graph, qr, qc int, enum Enumeration) (*Prepared, error) {
	in, err := dgraph.ScatterInput{Graph: g}.Build(c)
	if err != nil {
		return nil, err
	}
	bcast := qr > 0
	if !bcast {
		qr, qc = mpi.FactorGrid(c.Size())
	}
	return prepareGrid(c, in, qr, qc, bcast, enum)
}

func prepareHashes(g *graph.Graph, p, qr, qc int, enum Enumeration) (goldenEntry, error) {
	results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
		prep, err := prepareOn(c, g, qr, qc, enum)
		if err != nil {
			return nil, err
		}
		if qr == 0 && len(prep.blk.l) != 0 {
			return nil, fmt.Errorf("rank %d: a shift state keeps %d L classes", c.Rank(), len(prep.blk.l))
		}
		blob, err := parentBlob(c, prep)
		if err != nil {
			return nil, err
		}
		blob[9] = byte(enum) // encoders write the ⟨j,i,k⟩ rule byte only
		sum := sha256.Sum256(blob)
		return goldenEntry{PreOps: prep.PreOps(), Ranks: []string{hex.EncodeToString(sum[:])}}, nil
	})
	if err != nil {
		return goldenEntry{}, err
	}
	out := goldenEntry{PreOps: results[0].(goldenEntry).PreOps}
	for _, r := range results {
		out.Ranks = append(out.Ranks, r.(goldenEntry).Ranks[0])
	}
	return out, nil
}

// readGolden loads the recorded hashes of testdata/prepare_golden.json.
func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]goldenEntry)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPrepareIgnoresRowOrder: the pipeline's output does not depend on the
// order of the entries inside an input row — the transposes of buildBlocks
// sort every list, and the labels depend only on degrees and cyclic ids —
// so a graph whose every row is shuffled must give the recorded bytes on
// every golden world. delta.Rebuild relies on it: the rows it reassembles
// arrive in whatever order the ranks' row slices land.
func TestPrepareIgnoresRowOrder(t *testing.T) {
	want := readGolden(t)
	rng := rand.New(rand.NewSource(5))
	for gname, g := range goldenGraphs(t) {
		shuffled := &graph.Graph{N: g.N, Xadj: g.Xadj, Adj: slices.Clone(g.Adj)}
		for v := int32(0); v < g.N; v++ {
			row := shuffled.Adj[g.Xadj[v]:g.Xadj[v+1]]
			rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		}
		for _, w := range goldenWorlds {
			for _, enum := range []Enumeration{EnumJIK, EnumIJK} {
				key := fmt.Sprintf("%s/%s/%v", gname, w.name, enum)
				e, err := prepareHashes(shuffled, w.p, w.qr, w.qc, enum)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if !slices.Equal(e.Ranks, want[key].Ranks) {
					t.Errorf("%s: shuffled rows give hashes %v, recorded %v", key, e.Ranks, want[key].Ranks)
				}
			}
		}
	}
}

// TestPrepareGolden is the differential test of the preprocessing pipeline:
// testdata/prepare_golden.json was recorded from the pair-list/sort pipeline
// this one replaced, and every rank's resident state must still serialize to
// the same bytes — a Cannon state that keeps no L block with the L block it
// reads from the transposed rank, in the snapshot kind the file was recorded
// in. Preprocessing op counts may only fall.
func TestPrepareGolden(t *testing.T) {
	got := make(map[string]goldenEntry)
	for gname, g := range goldenGraphs(t) {
		for _, w := range goldenWorlds {
			for _, enum := range []Enumeration{EnumJIK, EnumIJK} {
				key := fmt.Sprintf("%s/%s/%v", gname, w.name, enum)
				e, err := prepareHashes(g, w.p, w.qr, w.qc, enum)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got[key] = e
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, the test matrix %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden entry", key)
			continue
		}
		if g.PreOps > w.PreOps {
			t.Errorf("%s: PreOps %d, recorded %d — preprocessing ops may only fall", key, g.PreOps, w.PreOps)
		}
		if len(g.Ranks) != len(w.Ranks) {
			t.Errorf("%s: %d ranks, recorded %d", key, len(g.Ranks), len(w.Ranks))
			continue
		}
		for r := range g.Ranks {
			if g.Ranks[r] != w.Ranks[r] {
				t.Errorf("%s rank %d: EncodePrepared hash %s, recorded %s", key, r, g.Ranks[r][:16], w.Ranks[r][:16])
			}
		}
	}
}
