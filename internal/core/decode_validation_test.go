package core

import (
	"encoding/binary"
	"strings"
	"testing"
)

// corpusBase returns the base blob of rank `rank` of a ⟨j,i,k⟩ compat-corpus
// configuration and the configuration's world size.
func corpusBase(t testing.TB, name string, rank int) (blob []byte, size int) {
	t.Helper()
	for _, cfg := range readCompatManifest(t).Configs {
		if cfg.Name == name && cfg.Enum == EnumJIK.String() {
			return compatBlob(t, cfg, rank, "base"), cfg.Ranks
		}
	}
	t.Fatalf("no corpus configuration %q", name)
	return nil, 0
}

// corpusState decodes rank `rank` of a ⟨j,i,k⟩ compat-corpus configuration:
// a valid state to damage.
func corpusState(t testing.TB, name string, rank int) (p *Prepared, size int) {
	t.Helper()
	blob, size := corpusBase(t, name, rank)
	p, err := DecodePrepared(blob, rank, size)
	if err != nil {
		t.Fatal(err)
	}
	return p, size
}

// damageCannonL applies damage to the L block of a Cannon-with-L base blob,
// the kind every corpus Cannon blob is in, in place. The L block, the last,
// follows the grid, the block header, the task block and the U block.
func damageCannonL(blob []byte, damage func(l *csrBlock)) {
	at, _, _, _ := blobWalk(blob)
	d := &decoder{b: blob, off: at + 3*4 + 8 + 8 + 2*4}
	d.csr(kindU)
	d.csr(kindU)
	lAt := d.off
	l := d.csr(kindL)
	if d.err != nil || blob[8] != kindCannonLState {
		panic("core: not a Cannon-with-L blob") // a bug in the test
	}
	damage(&l)
	for i, v := range l.xadj {
		putI32(blob, lAt+8+4*i, v)
	}
	for i, v := range l.adj {
		putI32(blob, lAt+12+4*len(l.xadj)+4*i, v)
	}
}

// blobWalk returns the byte offsets of a base blob's Cannon block header (q)
// or SUMMA class lists (the U count, the first and second U class id).
func blobWalk(blob []byte) (gridAt, nuAt, firstID, secondID int) {
	d := &decoder{b: blob}
	d.u32()
	d.u32()
	kind, _ := d.kindEnum()
	for i := 0; i < 5; i++ {
		d.i64()
	}
	d.i32()
	d.i32s()
	d.i32s()
	gridAt = d.off
	if kind != kindSUMMAState {
		return gridAt, 0, 0, 0
	}
	d.off += 3*4 + 8 + 2*4
	d.csr(kindU)
	nuAt = d.off
	d.i32()
	firstID = d.off
	d.i32()
	d.csr(kindU)
	secondID = d.off
	if d.err != nil {
		panic(d.err) // the blob was just encoded: a bug in the test
	}
	return gridAt, nuAt, firstID, secondID
}

func putI32(blob []byte, at int, v int32) { binary.LittleEndian.PutUint32(blob[at:], uint32(v)) }
func getI32(blob []byte, at int) int32    { return int32(binary.LittleEndian.Uint32(blob[at:])) }

// hostileLabel points label slot 0 just past the base region [0, baseN): a
// state whose blob only a range check of the labels refuses.
func hostileLabel(p *Prepared) { p.labels[0] = int32(p.baseN) }

// midRow returns a row index strictly inside a block's row-pointer array.
func midRow(b *csrBlock) int32 { return b.rows / 2 }

// TestDecodeRejectsInvalidBlocks crafts one blob per rule the decoder
// enforces — everything the kernel's bitmap, the splice's binary searches and
// the class-indexed layout take for granted — and requires a typed error
// naming the rule, never a panic, from every snapshot kind. An L block is
// damaged in a SUMMA state's L class, and in the Cannon case in the corpus
// blob's own bytes: a Cannon state keeps no L block, but the decoder checks
// the one a legacy blob carries before it drops it.
func TestDecodeRejectsInvalidBlocks(t *testing.T) {
	type craft struct {
		name   string
		mutate func(p *Prepared)                 // damage the state, then encode
		bytes  func(blob []byte)                 // or damage the encoded blob
		l      func(l *csrBlock, keyRange int32) // or damage the L block
		want   string                            // substring of the error
		kinds  []string                          // corpus configurations it applies to
	}
	both := []string{"cannon4", "summa2x3"}
	cases := []craft{
		{name: "dimensions", mutate: func(p *Prepared) { p.blk.nRows++ }, want: "dimensions", kinds: both},
		{name: "block row count", mutate: func(p *Prepared) {
			b := &p.blk.u[0]
			b.rows--
			b.xadj = b.xadj[:b.rows+1]
			b.adj = b.adj[:b.xadj[b.rows]]
		}, want: "lists", kinds: both},
		{name: "row pointers start above 0", mutate: func(p *Prepared) { p.blk.u[0].xadj[0] = 1 }, want: "row pointers", kinds: both},
		{name: "row pointers decrease", l: func(l *csrBlock, _ int32) { l.xadj[midRow(l)] = -1 }, want: "decrease", kinds: both},
		{name: "task row pointers decrease", mutate: func(p *Prepared) {
			b := &p.blk.task
			b.xadj[midRow(b)] = b.xadj[b.rows] + 1
		}, want: "decrease", kinds: both},
		{name: "U key at the bitmap length", mutate: func(p *Prepared) {
			_, keyRange := p.kernelSizing()
			adj := p.blk.u[0].adj
			adj[len(adj)-1] = keyRange
		}, want: "U class", kinds: both},
		{name: "U key negative", mutate: func(p *Prepared) { p.blk.u[0].adj[0] = -1 }, want: "U class", kinds: both},
		{name: "L key at the bitmap length", l: func(l *csrBlock, keyRange int32) { l.adj[0] = keyRange }, want: "L class", kinds: both},
		{name: "task column outside the block", mutate: func(p *Prepared) { p.blk.task.adj[0] = p.blk.nCols }, want: "task block", kinds: both},
		{name: "maxURow below the longest row", mutate: func(p *Prepared) { p.blk.maxURow = p.blk.longestURow() - 1 }, want: "maxURow", kinds: both},
		{name: "maxURow above the key range", mutate: func(p *Prepared) {
			_, keyRange := p.kernelSizing()
			p.blk.maxURow = int64(keyRange) + 1
		}, want: "maxURow", kinds: both},
		{name: "vertex count beyond int32", mutate: func(p *Prepared) { p.n = 1 << 40 }, want: "vertex space", kinds: both},
		{name: "degree-dirty set unsorted", mutate: func(p *Prepared) { p.SetDegreeDirty([]int32{5, 9}) }, bytes: func(blob []byte) {
			at, _, _, _ := blobWalk(blob) // the set's two entries end where the grid begins
			putI32(blob, at-8, 9)
			putI32(blob, at-4, 5)
		}, want: "ascending", kinds: both},
		{name: "label outside the base region", mutate: hostileLabel, want: "base region", kinds: both},
		{name: "label negative", mutate: func(p *Prepared) { p.labels[len(p.labels)-1] = -1 }, want: "base region", kinds: both},
		{name: "label map one slot short", mutate: func(p *Prepared) { p.labels = p.labels[:len(p.labels)-1] }, want: "label map", kinds: both},
		{name: "label map from another cyclic id", mutate: func(p *Prepared) { p.labelBeg++ }, want: "label map", kinds: both},
		{name: "degree-dirty label outside the vertex space", mutate: func(p *Prepared) {
			p.SetDegreeDirty([]int32{0, int32(p.n)})
		}, want: "degree-dirty label", kinds: both},
		{name: "padding not zero", bytes: func(blob []byte) { blob[11] = 1 }, want: "padding", kinds: both},
		{name: "enumeration unknown", bytes: func(blob []byte) { blob[9] = 7 }, want: "enumeration", kinds: both},
		{name: "state kind unknown", bytes: func(blob []byte) { blob[8] = 3 }, want: "kind", kinds: both},
		{name: "Cannon kind without L laid out for ijk", bytes: func(blob []byte) { blob[9] = byte(EnumIJK) }, want: "no L block", kinds: []string{"cannon4"}},

		{name: "grid of another world", bytes: func(blob []byte) {
			at, _, _, _ := blobWalk(blob)
			putI32(blob, at, 3)
		}, want: "grid", kinds: both},
		{name: "grid side zero", bytes: func(blob []byte) {
			at, _, _, _ := blobWalk(blob)
			putI32(blob, at, 0)
		}, want: "grid", kinds: both},
		{name: "blocks built over another n", bytes: func(blob []byte) {
			at, _, _, _ := blobWalk(blob)
			blob[at+12]++
		}, want: "vertices", kinds: []string{"cannon4"}},
		{name: "class count wrong lcm", bytes: func(blob []byte) {
			at, _, _, _ := blobWalk(blob)
			putI32(blob, at+8, 12)
		}, want: "classes", kinds: []string{"summa2x3"}},

		{name: "class id at L", bytes: func(blob []byte) {
			_, _, first, _ := blobWalk(blob)
			putI32(blob, first, getI32(blob, first)+6) // same residue, ≥ lcm(2,3)
		}, want: "operand class", kinds: []string{"summa2x3"}},
		{name: "class of another rank", bytes: func(blob []byte) {
			_, _, first, _ := blobWalk(blob)
			putI32(blob, first, getI32(blob, first)+1)
		}, want: "operand class", kinds: []string{"summa2x3"}},
		{name: "class listed twice", bytes: func(blob []byte) {
			_, _, first, second := blobWalk(blob)
			putI32(blob, second, getI32(blob, first))
		}, want: "operand class", kinds: []string{"summa2x3"}},
		{name: "class count negative", bytes: func(blob []byte) {
			_, nu, _, _ := blobWalk(blob)
			putI32(blob, nu, -1)
		}, want: "operand classes", kinds: []string{"summa2x3"}},
		{name: "class count above the owned", bytes: func(blob []byte) {
			_, nu, _, _ := blobWalk(blob)
			putI32(blob, nu, 3)
		}, want: "operand classes", kinds: []string{"summa2x3"}},
	}
	for _, tc := range cases {
		for _, kind := range tc.kinds {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				p, size := corpusState(t, kind, 1)
				_, keyRange := p.kernelSizing()
				if tc.mutate != nil {
					tc.mutate(p)
				}
				if tc.l != nil && p.bcast {
					tc.l(p.blk.l[0].byCols(), keyRange)
				}
				blob := EncodePrepared(p)
				if tc.l != nil && !p.bcast {
					blob, _ = corpusBase(t, kind, 1)
					damageCannonL(blob, func(l *csrBlock) { tc.l(l, keyRange) })
				}
				if tc.bytes != nil {
					tc.bytes(blob)
				}
				_, err := DecodePrepared(blob, 1, size) // a panic fails the test
				if err == nil {
					t.Fatal("decoded without error")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not name the rule (%q)", err, tc.want)
				}
			})
		}
	}
}

// TestApplyDeltaRejectsInvalidBlocks does the same for the delta decoder: a
// chain whose replay would leave a block violating a rule is refused.
func TestApplyDeltaRejectsInvalidBlocks(t *testing.T) {
	// deltaOf deletes one owned U entry from a tracked twin of the base
	// state, lets damage loose on the twin, and encodes its delta.
	deltaOf := func(t *testing.T, kind string, damage func(p *Prepared, row int32)) (base []byte, size int, delta []byte) {
		live, size := corpusState(t, kind, 1)
		live.EnableSnapshotTracking()
		blk := live.blk
		u := &blk.u[0]
		a := int32(0)
		for len(u.row(a)) < 2 {
			a++
		}
		wa := a*int32(blk.qr) + int32(blk.row)
		wb := u.row(a)[0]*int32(blk.L) + int32(blk.col) // class index 0 is class `col`
		live.spliceBlocks(1, nil, [][2]int32{{wa, wb}})
		damage(live, a)
		base, _ = corpusBase(t, kind, 1)
		return base, size, EncodePreparedDelta(live)
	}
	for _, kind := range []string{"cannon4", "summa2x3"} {
		for _, tc := range []struct {
			name   string
			damage func(p *Prepared, row int32)
			want   string
		}{
			{"undamaged", func(*Prepared, int32) {}, ""},
			{"replaced row holds a key at the bitmap length", func(p *Prepared, a int32) {
				_, keyRange := p.kernelSizing()
				row := p.blk.u[0].row(a)
				row[len(row)-1] = keyRange
			}, "U class"},
			{"dimensions", func(p *Prepared, _ int32) { p.blk.nCols++ }, "dimensions"},
			{"maxURow below the longest row", func(p *Prepared, _ int32) { p.blk.maxURow = 0 }, "maxURow"},
			{"shrinking vertex space", func(p *Prepared, _ int32) { p.n-- }, "vertex space"},
			{"patched label outside the base region", func(p *Prepared, _ int32) {
				hostileLabel(p)
				p.MarkLabelSlot(0)
			}, "base region"},
			{"patched label negative", func(p *Prepared, _ int32) {
				p.labels[1] = -1
				p.MarkLabelSlot(1)
			}, "base region"},
			{"degree-dirty label outside the vertex space", func(p *Prepared, _ int32) {
				p.MarkDegreeDirty([]int32{int32(p.n)})
			}, "degree-dirty label"},
		} {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				base, size, delta := deltaOf(t, kind, tc.damage)
				_, err := DecodeChain([][]byte{base, delta}, 1, size)
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("undamaged delta refused: %v", err)
				case tc.want != "" && err == nil:
					t.Fatal("replayed without error")
				case tc.want != "" && !strings.Contains(err.Error(), tc.want):
					t.Fatalf("error %q does not name the rule (%q)", err, tc.want)
				}
			})
		}
	}
	// A class id the rank does not own: the first class id of the SUMMA
	// delta follows its task rowset.
	base, size, delta := deltaOf(t, "summa2x3", func(*Prepared, int32) {})
	d := &decoder{b: delta}
	d.u32()
	d.u32()
	d.kindEnum()
	for i := 0; i < 6; i++ {
		d.i64()
	}
	d.i32()
	d.i32()
	for range d.vgaps() {
		d.vi()
	}
	d.vgaps()
	d.i32()
	d.i32()
	d.deltaRowset()
	if d.err != nil || getI32(delta, d.off) != 1 {
		t.Fatalf("walked the delta to offset %d (err %v), not to a one-class U list", d.off, d.err)
	}
	putI32(delta, d.off+4, getI32(delta, d.off+4)+1)
	if _, err := DecodeChain([][]byte{base, delta}, 1, size); err == nil || !strings.Contains(err.Error(), "operand class") {
		t.Fatalf("delta naming another rank's class: %v", err)
	}
}
