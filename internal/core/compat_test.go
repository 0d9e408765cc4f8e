package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// The compat corpus (testdata/compat) was recorded ONCE, by the commit before
// blocks and summaBlocks became one layout: per rank, the EncodePrepared blob
// of an RMAT scale-8 graph and the EncodePreparedDelta blob after one
// 64-update delta.Apply batch, on Cannon 4 ranks, SUMMA 2×3 and forced SUMMA
// 2×2, both enumeration rules, plus (manifest.json) the batch in original
// vertex ids and the SHA-256 of every rank's EncodePrepared blob after it.
// Unlike the golden hashes, which the code under test can re-record, these
// are bytes another binary wrote: decoding them is what "disk format
// unchanged" means for snapshots already on disk. Never regenerate them from
// the code under test.
const compatDir = "testdata/compat"

type compatConfig struct {
	Name        string   `json:"name"`
	Ranks       int      `json:"ranks"`
	Enum        string   `json:"enum"`
	AfterSHA256 []string `json:"after_sha256"`
}

type compatManifest struct {
	Scale      int            `json:"rmat_scale"`
	EdgeFactor int            `json:"rmat_edge_factor"`
	Seed       uint64         `json:"rmat_seed"`
	Updates    [][3]int32     `json:"updates"` // (op, u, v): 0 insert, 1 delete, 2 add u vertices
	Configs    []compatConfig `json:"configs"`
}

func readCompatManifest(tb testing.TB) compatManifest {
	tb.Helper()
	js, err := os.ReadFile(filepath.Join(compatDir, "manifest.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var man compatManifest
	if err := json.Unmarshal(js, &man); err != nil {
		tb.Fatal(err)
	}
	return man
}

// compatBlob reads one rank's blob of a corpus configuration; ext is "base"
// or "delta".
func compatBlob(tb testing.TB, cfg compatConfig, rank int, ext string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join(compatDir, fmt.Sprintf("%s-%s.r%d.%s", cfg.Name, cfg.Enum, rank, ext)))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// compatOracle counts the triangles of the corpus graph before and after the
// recorded batch, sequentially.
func compatOracle(t *testing.T, man compatManifest) (before, after int64) {
	t.Helper()
	g := mustRMAT(t, rmat.G500, man.Scale, man.EdgeFactor, man.Seed)
	before = seqtc.Count(g)
	n := g.N
	present := make(map[[2]int32]bool)
	for v := int32(0); v < g.N; v++ {
		for _, u := range g.NeighborsAbove(v) {
			present[[2]int32{v, u}] = true
		}
	}
	for _, upd := range man.Updates {
		op, u, v := upd[0], upd[1], upd[2]
		if op == 2 {
			n += u
			continue
		}
		if u > v {
			u, v = v, u
		}
		n = max(n, v+1)
		if op == 0 {
			present[[2]int32{u, v}] = true
		} else {
			delete(present, [2]int32{u, v})
		}
	}
	edges := make([]graph.Edge, 0, len(present))
	for e := range present {
		edges = append(edges, graph.Edge{U: e[0], V: e[1]})
	}
	g2, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return before, seqtc.Count(g2)
}

// TestDecodeParentBlobs restores what the parent commit wrote, through
// DecodeChain: every ⟨j,i,k⟩ base blob decodes, re-encodes to the same bytes
// and counts the oracle's triangles; base and delta decode to a state that
// encodes to the bytes the parent's live state encoded to and counts the
// oracle's triangles of the updated graph. A ⟨j,i,k⟩ Cannon state drops the
// L block of its blob, so it is compared in the parent's kind, with the L
// block it reads from the transposed rank (parentBlob); it must round-trip
// in its own kind byte for byte, and its L operands must be the reference
// ones (CheckLOperands). An ⟨i,j,k⟩ chain is converted to ⟨j,i,k⟩ as it
// decodes, so base and base+delta must encode to their ⟨j,i,k⟩ twin's
// bytes.
func TestDecodeParentBlobs(t *testing.T) {
	man := readCompatManifest(t)
	if len(man.Configs) != 6 {
		t.Fatalf("corpus lists %d configurations, want 6", len(man.Configs))
	}
	wantBefore, wantAfter := compatOracle(t, man)
	twins := make(map[string][][]byte) // name/chain → the ⟨j,i,k⟩ states' blobs, by rank
	for _, cfg := range man.Configs {
		name := cfg.Name + "-" + cfg.Enum
		jik := cfg.Enum == EnumJIK.String()
		w := mpi.NewWorld(cfg.Ranks, testCfg())
		preps := make([]*Prepared, cfg.Ranks)
		// restored decodes every rank's chain — the base, and for chain
		// "delta" the delta after it — checks the states, the hashes of
		// their blobs in the parent's kind against want (nil: the base
		// blobs) or their twins', and counts them.
		restored := func(chain string, want []string) (int64, error) {
			key := cfg.Name + "/" + chain
			if jik {
				twins[key] = make([][]byte, cfg.Ranks)
			} else if twins[key] == nil {
				return 0, fmt.Errorf("no ⟨j,i,k⟩ twin decoded before")
			}
			twin := twins[key]
			if _, err := w.Run(func(c *mpi.Comm) (any, error) {
				blobs := [][]byte{compatBlob(t, cfg, c.Rank(), "base")}
				if chain == "delta" {
					blobs = append(blobs, compatBlob(t, cfg, c.Rank(), "delta"))
				}
				var err error
				preps[c.Rank()], err = DecodeChain(blobs, c.Rank(), c.Size())
				return nil, err
			}); err != nil {
				return 0, err
			}
			if !preps[0].bcast {
				if _, err := w.RunRead(func(c *mpi.Comm) (any, error) { return nil, CheckLOperands(c, preps) }); err != nil {
					return 0, err
				}
			}
			results, err := w.RunRead(func(c *mpi.Comm) (any, error) {
				prep := preps[c.Rank()]
				own := EncodePrepared(prep)
				if !jik {
					if !bytes.Equal(own, twin[c.Rank()]) {
						return nil, fmt.Errorf("rank %d: the %s chain does not decode to its ⟨j,i,k⟩ twin", c.Rank(), chain)
					}
				} else if blob, err := parentBlob(c, prep); err != nil {
					return nil, err
				} else if want == nil {
					if !bytes.Equal(blob, compatBlob(t, cfg, c.Rank(), "base")) {
						return nil, fmt.Errorf("rank %d: base blob does not re-encode to itself", c.Rank())
					}
				} else if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != want[c.Rank()] {
					return nil, fmt.Errorf("rank %d: base+delta encodes to %s, the parent's live state to %s", c.Rank(), hex.EncodeToString(sum[:]), want[c.Rank()])
				}
				if jik {
					twin[c.Rank()] = own
				}
				again, err := DecodePrepared(own, c.Rank(), c.Size())
				if err != nil {
					return nil, fmt.Errorf("rank %d: own blob: %w", c.Rank(), err)
				}
				if !bytes.Equal(EncodePrepared(again), own) {
					return nil, fmt.Errorf("rank %d: kind %d blob does not round-trip", c.Rank(), own[8])
				}
				res, err := CountPrepared(c, prep, Options{})
				if err != nil {
					return nil, err
				}
				return res.Triangles, nil
			})
			if err != nil {
				return 0, err
			}
			return results[0].(int64), nil
		}
		before, err := restored("base", nil)
		var after int64
		if err == nil {
			after, err = restored("delta", cfg.AfterSHA256)
		}
		w.Close()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if before != wantBefore || after != wantAfter {
			t.Errorf("%s: restored states count %d and %d triangles, the oracle %d and %d", name, before, after, wantBefore, wantAfter)
		}
	}
}

// compatSeed is one (base, delta) pair of the corpus with the rank and world
// size it belongs to.
type compatSeed struct {
	base, delta []byte
	rank, size  int
}

// compatSeeds lists the corpus pairs, then for every cannon4 rank a pair
// whose delta is the one this binary writes, in the Cannon kind, after one
// deletion from the U block of the state the corpus base decodes to: for
// ⟨j,i,k⟩ over that state re-encoded, which keeps no L block; for ⟨i,j,k⟩
// over the legacy base itself, so the delta is one written after a
// conversion.
func compatSeeds(tb testing.TB) (seeds []compatSeed) {
	man := readCompatManifest(tb)
	for _, cfg := range man.Configs {
		for r := 0; r < cfg.Ranks; r++ {
			seeds = append(seeds, compatSeed{compatBlob(tb, cfg, r, "base"), compatBlob(tb, cfg, r, "delta"), r, cfg.Ranks})
		}
	}
	for _, cfg := range man.Configs {
		if cfg.Name != "cannon4" {
			continue
		}
		for r := 0; r < cfg.Ranks; r++ {
			base := compatBlob(tb, cfg, r, "base")
			p, err := DecodePrepared(base, r, cfg.Ranks)
			if err != nil {
				tb.Fatal(err)
			}
			if cfg.Enum == EnumJIK.String() {
				base = EncodePrepared(p)
			}
			if got := EncodePrepared(p); got[8] != kindCannonState || got[9] != byte(EnumJIK) {
				tb.Fatalf("%s rank %d: a decoded Cannon state encodes in kind %d for rule %d", cfg.Enum, r, got[8], got[9])
			}
			p.EnableSnapshotTracking()
			b := p.blk
			a := int32(0)
			for len(b.u[0].row(a)) == 0 {
				a++
			}
			wa, wb := a*int32(b.qr)+int32(b.row), b.u[0].row(a)[0]*int32(b.L)+int32(b.col)
			p.spliceBlocks(r, nil, [][2]int32{{wa, wb}})
			seeds = append(seeds, compatSeed{base, EncodePreparedDelta(p), r, cfg.Ranks})
		}
	}
	return seeds
}

// reencodes reports whether got is what an accepted blob must re-encode to:
// the blob itself, or for a ⟨j,i,k⟩ Cannon blob with its L block, the blob
// in the Cannon kind, which ends where the L block, the last, began.
func reencodes(got, blob []byte) bool {
	if bytes.Equal(got, blob) {
		return true
	}
	return len(got) < len(blob) && blob[8] == kindCannonLState && got[8] == kindCannonState &&
		bytes.Equal(got[:8], blob[:8]) && bytes.Equal(got[9:], blob[9:len(got)])
}

// allocatedBy runs fn and returns the bytes the process allocated meanwhile.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecoded is the property a successfully decoded or replayed state must
// have: the sizing bounds hold, and it encodes to a blob that decodes and
// re-encodes to the same bytes.
func checkDecoded(t *testing.T, p *Prepared, rank, size int) []byte {
	t.Helper()
	if err := p.blk.check(p.n); err != nil {
		t.Fatalf("accepted state fails the sizing check: %v", err)
	}
	blob := EncodePrepared(p)
	again, err := DecodePrepared(blob, rank, size)
	if err != nil {
		t.Fatalf("accepted state's own blob is rejected: %v", err)
	}
	if !bytes.Equal(EncodePrepared(again), blob) {
		t.Fatal("accepted state does not re-encode to the same bytes")
	}
	return blob
}

// FuzzDecodePrepared: any byte string is either rejected with an error or
// decodes to a state that passes the sizing check and round-trips
// (checkDecoded) — never a panic, and never more memory than a multiple of
// the input (every length field is checked against the bytes that are
// left). An accepted blob re-encodes to exactly its own bytes (reencodes),
// but for a legacy ⟨i,j,k⟩ one, which decodes converted: that re-encodes in
// the Cannon or the SUMMA kind for ⟨j,i,k⟩.
func FuzzDecodePrepared(f *testing.F) {
	for _, s := range compatSeeds(f) {
		f.Add(s.base, uint8(s.rank), uint8(s.size))
	}
	hostile, size := corpusState(f, "cannon4", 1)
	hostileLabel(hostile)
	f.Add(EncodePrepared(hostile), uint8(1), uint8(size))
	f.Fuzz(func(t *testing.T, blob []byte, rank, size uint8) {
		size = size%16 + 1
		rank %= size
		var p *Prepared
		var err error
		alloc := allocatedBy(func() { p, err = DecodePrepared(blob, int(rank), int(size)) })
		if limit := uint64(64*len(blob) + 64<<10); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(blob), alloc)
		}
		if err != nil {
			return
		}
		got := checkDecoded(t, p, int(rank), int(size))
		if blob[9] != byte(EnumIJK) {
			if !reencodes(got, blob) {
				t.Fatal("accepted blob does not re-encode to itself")
			}
		} else if got[9] != byte(EnumJIK) || (got[8] != kindCannonState && got[8] != kindSUMMAState) {
			t.Fatalf("accepted ⟨i,j,k⟩ blob re-encodes in kind %d for rule %d", got[8], got[9])
		}
	})
}

// FuzzApplyPreparedDelta restores the chain of a corpus base and arbitrary
// bytes as its delta (DecodeChain): an error, or a state with the property
// of checkDecoded — never a panic. Vertex growth is the one thing a delta
// legitimately buys with O(1) bytes (empty rows for every admitted id), so
// inputs announcing more than 2^16 new ids are skipped rather than given the
// memory; everything else must stay proportional to the two blobs.
func FuzzApplyPreparedDelta(f *testing.F) {
	seeds := compatSeeds(f)
	for i, s := range seeds {
		f.Add(s.delta, uint8(i))
	}
	hostile, err := DecodePrepared(seeds[1].base, seeds[1].rank, seeds[1].size)
	if err != nil {
		f.Fatal(err)
	}
	hostile.EnableSnapshotTracking()
	hostileLabel(hostile)
	hostile.MarkLabelSlot(0)
	f.Add(EncodePreparedDelta(hostile), uint8(1))
	f.Fuzz(func(t *testing.T, blob []byte, which uint8) {
		s := seeds[int(which)%len(seeds)]
		const nAt = 12 // magic, version, kind word, then n, in either blob
		if len(blob) >= nAt+8 {
			n, baseN := int64(binary.LittleEndian.Uint64(blob[nAt:])), int64(binary.LittleEndian.Uint64(s.base[nAt:]))
			if n > baseN+1<<16 {
				t.Skip("announces more growth than the harness grants memory for")
			}
		}
		var p *Prepared
		var err error
		alloc := allocatedBy(func() { p, err = DecodeChain([][]byte{s.base, blob}, s.rank, s.size) })
		if limit := uint64(64*(len(blob)+len(s.base)) + 8<<20); alloc > limit {
			t.Fatalf("restoring %d bytes onto a %d-byte base allocated %d", len(blob), len(s.base), alloc)
		}
		if err == nil {
			checkDecoded(t, p, s.rank, s.size)
		}
	})
}
