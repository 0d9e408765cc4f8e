package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// TestCyclicRedistributeInvariants checks step (i): after the cyclic
// redistribution, ownership is contiguous by new labels, every vertex is
// covered exactly once, and degrees are preserved under the relabeling.
func TestCyclicRedistributeInvariants(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 3)
	for _, p := range []int{1, 3, 4, 7} {
		p := p
		results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
			var full *graph.Graph
			if c.Rank() == 0 {
				full = g
			}
			in, err := dgraph.ScatterGraph(c, 0, full)
			if err != nil {
				return nil, err
			}
			var ops int64
			out := cyclicRedistribute(c, in, &ops)
			if ops <= 0 {
				t.Errorf("rank %d: no ops counted", c.Rank())
			}
			// Local shape invariants: the chunks name every owned id once
			// and account for every word of the parts.
			deg, entries, err := out.degrees()
			if err != nil {
				return nil, err
			}
			if int(out.end-out.beg) != len(deg) {
				t.Errorf("rank %d: range [%d, %d) for %d degrees", c.Rank(), out.beg, out.end, len(deg))
			}
			var chunks, words int64
			for range out.chunks() {
				chunks++
			}
			for _, part := range out.parts {
				words += int64(len(part))
			}
			if chunks != int64(len(deg)) || words != entries+2*chunks {
				t.Errorf("rank %d: %d chunks of %d entries in %d words for %d ids", c.Rank(), chunks, entries, words, len(deg))
			}
			// Degree multiset must be preserved: sum of degrees and sum
			// of squared degrees are permutation invariants.
			var s1, s2 int64
			for _, d := range deg {
				s1 += int64(d)
				s2 += int64(d) * int64(d)
			}
			return []int64{s1, s2, int64(len(deg))}, nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		var s1, s2, nloc int64
		for _, r := range results {
			v := r.([]int64)
			s1 += v[0]
			s2 += v[1]
			nloc += v[2]
		}
		var w1, w2 int64
		for v := int32(0); v < g.N; v++ {
			d := int64(g.Degree(v))
			w1 += d
			w2 += d * d
		}
		if nloc != int64(g.N) {
			t.Errorf("p=%d: %d vertices owned, want %d", p, nloc, g.N)
		}
		if s1 != w1 || s2 != w2 {
			t.Errorf("p=%d: degree invariants changed: (%d,%d) vs (%d,%d)", p, s1, s2, w1, w2)
		}
	}
}

// TestDegreeRelabelOrder checks step (ii): new labels are a permutation and
// sorting vertices by new label yields non-decreasing degrees.
func TestDegreeRelabelOrder(t *testing.T) {
	g := mustRMAT(t, rmat.Twitterish, 8, 8, 5)
	p := 4
	results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
		var full *graph.Graph
		if c.Rank() == 0 {
			full = g
		}
		in, err := dgraph.ScatterGraph(c, 0, full)
		if err != nil {
			return nil, err
		}
		var ops int64
		rl, err := degreeRelabel(c, cyclicRedistribute(c, in, &ops), &ops)
		if err != nil {
			return nil, err
		}
		// Report (newLabel, degree) pairs for all local vertices.
		out := make([]int64, 0, 2*len(rl.labels))
		for id, row := range rl.chunks() {
			out = append(out, int64(rl.labels[id-rl.beg]), int64(len(row)))
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	degOf := make([]int64, g.N)
	seen := make([]bool, g.N)
	for _, r := range results {
		v := r.([]int64)
		for i := 0; i < len(v); i += 2 {
			w := v[i]
			if seen[w] {
				t.Fatalf("label %d assigned twice", w)
			}
			seen[w] = true
			degOf[w] = v[i+1]
		}
	}
	for w := int32(0); w < g.N; w++ {
		if !seen[w] {
			t.Fatalf("label %d unassigned", w)
		}
		if w > 0 && degOf[w] < degOf[w-1] {
			t.Fatalf("degree order violated at label %d: %d < %d", w, degOf[w], degOf[w-1])
		}
	}
}

// TestBuild2DBlockInvariants checks steps (iii)+(iv): the U and task blocks
// jointly contain every directed edge exactly once with consistent local
// indexing — the ⟨j,i,k⟩ task block holds the L entries, by rows — and a
// shift state keeps no L block.
func TestBuild2DBlockInvariants(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 7)
	p := 9
	results, err := mpi.Run(p, testCfg(), func(c *mpi.Comm) (any, error) {
		var full *graph.Graph
		if c.Rank() == 0 {
			full = g
		}
		in, err := dgraph.ScatterGraph(c, 0, full)
		if err != nil {
			return nil, err
		}
		grid, err := mpi.NewGrid(c, 3, 3)
		if err != nil {
			return nil, err
		}
		var ops int64
		rl, err := degreeRelabel(c, cyclicRedistribute(c, in, &ops), &ops)
		if err != nil {
			return nil, err
		}
		blk, err := build2D(c, grid, rl, false, EnumJIK, &ops)
		if err != nil {
			return nil, err
		}
		if len(blk.l) != 0 {
			t.Errorf("rank %d: the shift schedule keeps %d L classes", c.Rank(), len(blk.l))
		}
		// Doubly-sparse list covers exactly the non-empty rows.
		count := 0
		for a := int32(0); a < blk.task.rows; a++ {
			if len(blk.task.row(a)) > 0 {
				count++
			}
		}
		if count != len(blk.taskRows) {
			t.Errorf("rank %d: %d non-empty rows, list has %d", c.Rank(), count, len(blk.taskRows))
		}
		// U rows and task rows must be sorted ascending.
		for name, b := range map[string]*csrBlock{"U": &blk.u[0], "task": &blk.task} {
			for a := int32(0); a < b.rows; a++ {
				if row := b.row(a); !slices.IsSorted(row) || len(slices.Compact(slices.Clone(row))) != len(row) {
					t.Errorf("rank %d: %s row %d not strictly ascending", c.Rank(), name, a)
					break
				}
			}
		}
		return []int64{blk.u[0].nnz(), blk.task.nnz()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uTot, lTot int64
	for _, r := range results {
		v := r.([]int64)
		uTot += v[0]
		lTot += v[1]
	}
	if uTot != g.NumEdges() || lTot != g.NumEdges() {
		t.Fatalf("U nnz %d, task (L) nnz %d, want %d each", uTot, lTot, g.NumEdges())
	}
}

// TestCyclicPartsRejectMalformed: every way a received part of the cyclic
// redistribution can fail to be a sequence of chunks of the receiving
// rank's 1D block is a *PartError naming the chunk, never a panic.
func TestCyclicPartsRejectMalformed(t *testing.T) {
	const n = 10
	blk := func(part []int32) *cyclicBlock {
		return &cyclicBlock{n: n, beg: 3, end: 6, parts: [][]int32{{3, 2, 0, 9}, part}}
	}
	deg, entries, err := blk([]int32{5, 0, 4, 1, 7}).degrees()
	if err != nil || !slices.Equal(deg, []int32{2, 1, 0}) || entries != 3 {
		t.Fatalf("well-formed parts give degrees %v, %d entries, %v", deg, entries, err)
	}
	if deg, _, err := blk(nil).degrees(); err != nil || !slices.Equal(deg, []int32{2, 0, 0}) {
		t.Fatalf("ids no chunk names give degrees %v, %v; want 0", deg, err)
	}
	for _, tc := range []struct {
		name string
		part []int32
		word int
		want string
	}{
		{"truncated chunk header", []int32{4}, 0, "truncated chunk header"},
		{"truncated after a chunk", []int32{4, 1, 0, 5}, 3, "truncated chunk header"},
		{"id below the block", []int32{2, 0}, 0, "id 2 outside [3, 6)"},
		{"id past the block", []int32{4, 0, 6, 0}, 2, "id 6 outside [3, 6)"},
		{"id twice in one part", []int32{4, 0, 4, 1, 0}, 2, "id 4 arrives twice"},
		{"id twice across parts", []int32{3, 0}, 0, "id 3 arrives twice"},
		{"count past the end", []int32{4, 2, 0}, 0, "count 2, 1 words left"},
		{"negative count", []int32{4, -1}, 0, "count -1"},
		{"neighbour past n", []int32{4, 1, n}, 0, "neighbour 10 outside [0, 10)"},
		{"negative neighbour", []int32{4, 2, 0, -1}, 0, "neighbour -1 outside"},
	} {
		_, _, err := blk(tc.part).degrees()
		var pe *PartError
		if !errors.As(err, &pe) || pe.Exchange != exchCyclic || pe.Src != 1 || pe.Word != tc.word || !strings.Contains(pe.Reason, tc.want) {
			t.Errorf("%s: error %v, want a cyclic PartError from rank 1 at word %d containing %q", tc.name, err, tc.word, tc.want)
		}
	}
}

// TestCyclicPartsFailEveryRank: a malformed chunk on one rank fails the
// degree relabel on all of them — the receiver with its PartError, the
// others with an error of their own — and no rank is left waiting in a
// collective.
func TestCyclicPartsFailEveryRank(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 6, 4, 1)
	errs := make([]error, 4)
	_, err := mpi.Run(len(errs), testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		var ops int64
		d1 := cyclicRedistribute(c, in, &ops)
		if c.Rank() == 2 {
			d1.parts[0] = append(d1.parts[0], d1.beg) // a lone word: a truncated chunk
		}
		_, errs[c.Rank()] = degreeRelabel(c, d1, &ops)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PartError
	if !errors.As(errs[2], &pe) || pe.Exchange != exchCyclic || pe.Src != 0 {
		t.Errorf("rank 2: %v, want a cyclic PartError for the part from rank 0", errs[2])
	}
	for _, r := range []int{0, 1, 3} {
		if errs[r] == nil {
			t.Errorf("rank %d relabeled its block while rank 2 failed", r)
		}
	}
}

// FuzzCyclicParts: whatever two parts arrive at the cyclic step, the degree
// pass returns a *PartError or degrees that account for every word of the
// parts, and the chunk walk the later steps run yields every id once, in
// range, with its degree's worth of neighbours in [0, n) — never a panic.
func FuzzCyclicParts(f *testing.F) {
	g, err := rmat.G500.Generate(6, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	var parts [][]byte
	var beg, end int32
	_, err = mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		var ops int64
		d1 := cyclicRedistribute(c, in, &ops)
		if c.Rank() == 1 {
			beg, end = d1.beg, d1.end
			for _, part := range d1.parts[:2] {
				parts = append(parts, mpi.Int32sAsBytes(part))
			}
		}
		return nil, nil
	})
	if err != nil {
		f.Fatal(err)
	}
	n := uint16(g.N)
	f.Add(parts[0], parts[1], n, uint16(beg), uint16(end-beg))
	f.Add(parts[0][:len(parts[0])-4], parts[1], n, uint16(beg), uint16(end-beg))
	f.Add(parts[0], parts[1], n/2, uint16(beg), uint16(end-beg))
	f.Add(parts[0], parts[1], n, uint16(beg)+1, uint16(end-beg)-1)
	f.Fuzz(func(t *testing.T, a, b []byte, n, beg, size uint16) {
		blk := &cyclicBlock{n: int64(n % 1024), parts: [][]int32{mpi.BytesToInt32s(a[:len(a)&^3]), mpi.BytesToInt32s(b[:len(b)&^3])}}
		blk.beg = int32(beg) % int32(blk.n+1)
		blk.end = blk.beg + int32(size)%(int32(blk.n)-blk.beg+1)
		deg, entries, err := blk.degrees()
		if err != nil {
			if pe := (*PartError)(nil); !errors.As(err, &pe) || pe.Exchange != exchCyclic {
				t.Fatalf("not a cyclic PartError: %v", err)
			}
			return
		}
		var sum, chunks int64
		for _, d := range deg {
			if d < 0 {
				t.Fatalf("negative degree %d", d)
			}
			sum += int64(d)
		}
		seen := make([]bool, len(deg))
		for id, row := range blk.chunks() {
			if id < blk.beg || id >= blk.end || seen[id-blk.beg] || int32(len(row)) != deg[id-blk.beg] {
				t.Fatalf("chunk of id %d with %d neighbours in [%d, %d)", id, len(row), blk.beg, blk.end)
			}
			seen[id-blk.beg] = true
			for _, u := range row {
				if u < 0 || int64(u) >= blk.n {
					t.Fatalf("neighbour %d outside [0, %d)", u, blk.n)
				}
			}
			chunks++
		}
		if words := int64(len(blk.parts[0]) + len(blk.parts[1])); sum != entries || words != entries+2*chunks {
			t.Fatalf("degrees sum to %d, %d entries, %d chunks in %d words", sum, entries, chunks, words)
		}
	})
}

// TestBuildBlocksRejectsMalformed: every way a received part can fail to be
// a sequence of groups for the receiving rank is a *PartError naming the
// group, never a panic.
func TestBuildBlocksRejectsMalformed(t *testing.T) {
	const nRows, nCols = 2, 3
	u, l, err := buildBlocks([][]int32{{0, 2, 1, ^1}, {1, 0}}, nRows, nCols)
	if err != nil || u.nnz() != 1 || l.nnz() != 1 {
		t.Fatalf("a well-formed part gives U nnz %d, L nnz %d, %v", u.nnz(), l.nnz(), err)
	}
	for _, tc := range []struct {
		name string
		part []int32
		word int
		want string
	}{
		{"truncated group header", []int32{0}, 0, "truncated group header"},
		{"truncated after a group", []int32{0, 1, 1, 1}, 3, "truncated group header"},
		{"count past the end", []int32{0, 3, 1, 0}, 0, "count 3, 2 words left"},
		{"negative count", []int32{0, -1, 1}, 0, "count -1"},
		{"column past the block", []int32{0, 1, 1, nCols, 1, 0}, 3, "column 3 outside [0, 3)"},
		{"negative column", []int32{-1, 1, 0}, 0, "column -1 outside"},
		{"column sent twice", []int32{2, 1, 1, 2, 1, 0}, 3, "column 2 sent twice, first by rank 1 at word 0"},
		{"entry past the block", []int32{0, 1, nRows}, 0, "entry 2 outside [-2, 2)"},
		{"complemented entry past the block", []int32{1, 1, ^nRows}, 0, "entry -3 outside"},
		{"a repeated entry in one group", []int32{1, 0, 2, 3, 1, 0, 1}, 2, "row 1 repeated in column 2"},
		{"a repeated L entry in one group", []int32{2, 2, ^0, ^0}, 0, "row 0 repeated in column 2"},
	} {
		_, _, err := buildBlocks([][]int32{{}, tc.part}, nRows, nCols)
		var pe *PartError
		if !errors.As(err, &pe) || pe.Exchange != exch2D || pe.Src != 1 || pe.Word != tc.word || !strings.Contains(pe.Reason, tc.want) {
			t.Errorf("%s: error %v, want a 2D PartError from rank 1 at word %d containing %q", tc.name, err, tc.word, tc.want)
		}
	}
}

// TestBuild2DFailsOnEveryRank: a malformed part on one rank fails the 2D
// build on all of them — the receiver with its PartError, the others with
// an error of their own — and no rank is left waiting in a collective.
func TestBuild2DFailsOnEveryRank(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 6, 4, 1)
	errs := make([]error, 4)
	_, err := mpi.Run(len(errs), testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		var ops int64
		rl, err := degreeRelabel(c, cyclicRedistribute(c, in, &ops), &ops)
		if err != nil {
			return nil, err
		}
		got := routePairs(c, 2, 2, rl, &ops)
		if c.Rank() == 2 {
			got[0] = append(got[0], 0) // a lone word: a truncated group
		}
		_, errs[c.Rank()] = blocksOf(c, 2, 2, rl.n, got, false, EnumJIK, &ops)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PartError
	if !errors.As(errs[2], &pe) || pe.Exchange != exch2D || pe.Src != 0 {
		t.Errorf("rank 2: %v, want a 2D PartError for the part from rank 0", errs[2])
	}
	for _, r := range []int{0, 1, 3} {
		if errs[r] == nil {
			t.Errorf("rank %d built its blocks while rank 2 failed", r)
		}
	}
}

// FuzzBuildBlocks: whatever two parts arrive at the 2D build, buildBlocks
// returns a *PartError or blocks whose every row is strictly ascending and
// that round-trip through decodeCSRBlob, each held in an array of exactly
// its blob's size, with no more entries than the parts have words — never a
// panic, never an allocation sized by a header instead of by the entries
// seen.
func FuzzBuildBlocks(f *testing.F) {
	g, err := rmat.G500.Generate(6, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	var parts [][]byte
	var dims [2]uint16
	_, err = mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.ScatterInput{Graph: g}.Build(c)
		if err != nil {
			return nil, err
		}
		var ops int64
		rl, err := degreeRelabel(c, cyclicRedistribute(c, in, &ops), &ops)
		if err != nil {
			return nil, err
		}
		got := routePairs(c, 2, 2, rl, &ops)
		if c.Rank() == 1 {
			blk := newBlocks(2, 2, 1, rl.n, false)
			dims = [2]uint16{uint16(blk.nRows), uint16(blk.nCols)}
			for _, part := range got[:2] {
				parts = append(parts, mpi.Int32sAsBytes(part))
			}
		}
		return nil, nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parts[0], parts[1], dims[0], dims[1])
	f.Add(parts[1], parts[0], dims[0], dims[1])
	f.Add(parts[0], []byte(nil), dims[0], dims[1])
	f.Add(parts[0][:len(parts[0])-4], parts[1], dims[0], dims[1])
	f.Add(parts[0], parts[1], dims[0]-1, dims[1]-1)
	f.Add(parts[0], parts[0], dims[0], dims[1])
	f.Fuzz(func(t *testing.T, a, b []byte, nRows, nCols uint16) {
		got := [][]int32{mpi.BytesToInt32s(a[:len(a)&^3]), mpi.BytesToInt32s(b[:len(b)&^3])}
		rows, cols := int32(nRows%1024), int32(nCols%1024)
		u, lRows, err := buildBlocks(got, rows, cols)
		if err != nil {
			if pe := (*PartError)(nil); !errors.As(err, &pe) || pe.Exchange != exch2D {
				t.Fatalf("not a 2D PartError: %v", err)
			}
			return
		}
		if words := len(got[0]) + len(got[1]); u.nnz()+lRows.nnz() > int64(words) {
			t.Fatalf("%d U and %d L entries from %d words", u.nnz(), lRows.nnz(), words)
		}
		// The broadcast schedule's L block is the L pattern transposed.
		l := transpose(&lRows, kindL, cols)
		type built struct {
			blk       *csrBlock
			kind, dim int32
		}
		blks := []built{{&u, kindU, rows}, {&lRows, kindU, rows}, {&l, kindL, cols}}
		for _, b := range blks {
			for a := int32(0); a < b.blk.rows; a++ {
				if row := b.blk.row(a); !slices.IsSorted(row) || len(slices.Compact(slices.Clone(row))) != len(row) {
					t.Fatalf("kind %d block: list %d %v not strictly ascending", b.kind, a, row)
				}
			}
			blob := b.blk.blob()
			xadj, adj, err := decodeCSRBlob(blob, b.kind, b.dim)
			if err != nil || !slices.Equal(xadj, b.blk.xadj) || !slices.Equal(adj, b.blk.adj) {
				t.Fatalf("kind %d block does not round-trip: %v", b.kind, err)
			}
			if cap(b.blk.buf) != len(blob)/4 {
				t.Fatalf("kind %d block of %d words held in %d", b.kind, len(blob)/4, cap(b.blk.buf))
			}
		}
	})
}

// runCrafted runs one compute step of the kernel opt selects over hand-built
// blocks whose keys are all below 64.
func runCrafted(task, u *csrBlock, l *cscBlock, opt Options) kernelCounters {
	kn := newKernel(64, 64, l.rows, u.maxRow(), new(atomic.Pointer[kernelScratch]), opt)
	kn.run(task, task.nonEmptyRows(nil), u, l)
	return kn.kc
}

// TestKernelCraftedBlocks exercises the kernel directly on hand-built blocks:
// one task, one U row, one L column, with every option combination.
func TestKernelCraftedBlocks(t *testing.T) {
	// Task (row 0, col 0); U row 0 = {2, 5, 9}; L col 0 = {1, 5, 9, 11}.
	// Intersection = {5, 9} → 2 triangles.
	task := csrBlock{rows: 1, xadj: []int32{0, 1}, adj: []int32{0}}
	u := csrBlock{rows: 1, xadj: []int32{0, 3}, adj: []int32{2, 5, 9}}
	l := cscBlock{rows: 1, xadj: []int32{0, 4}, adj: []int32{1, 5, 9, 11}}
	for _, opt := range []Options{
		{},
		{NoDoublySparse: true},
		{NoDirectHash: true},
		{NoEarlyBreak: true},
		{NoDirectHash: true, NoEarlyBreak: true},
		{NoDoublySparse: true, NoDirectHash: true, NoEarlyBreak: true},
	} {
		kc := runCrafted(&task, &u, &l, opt)
		// Early break skips L column entry 1 < min(U row) = 2.
		wantProbes := int64(3)
		if opt.NoEarlyBreak {
			wantProbes = 4
		}
		if want := (kernelCounters{triangles: 2, probes: wantProbes, mapTasks: 1}); kc != want {
			t.Errorf("opt %+v: %+v, want %+v", opt, kc, want)
		}
	}
}

// TestKernelEmptyOperands: empty U rows or L columns contribute nothing and
// are not counted as map tasks.
func TestKernelEmptyOperands(t *testing.T) {
	task := csrBlock{rows: 2, xadj: []int32{0, 1, 1}, adj: []int32{0}}
	emptyU := csrBlock{rows: 2, xadj: []int32{0, 0, 0}}
	l := cscBlock{rows: 1, xadj: []int32{0, 1}, adj: []int32{3}}
	u := csrBlock{rows: 2, xadj: []int32{0, 2, 2}, adj: []int32{3, 4}}
	emptyL := cscBlock{rows: 1, xadj: []int32{0, 0}}
	for _, opt := range []Options{{}, {NoDirectHash: true}} {
		if kc := runCrafted(&task, &emptyU, &l, opt); kc != (kernelCounters{}) {
			t.Errorf("opt %+v, empty U: %+v", opt, kc)
		}
		if kc := runCrafted(&task, &u, &emptyL, opt); kc != (kernelCounters{}) {
			t.Errorf("opt %+v, empty L: %+v", opt, kc)
		}
	}
}

// TestDecodeBlobRejectsCorrupt: a received blob that is corrupt, of the
// wrong kind or not shaped for the receiving rank is an error naming what is
// wrong, never a panic and never a miscount.
func TestDecodeBlobRejectsCorrupt(t *testing.T) {
	b := blockOf([][]int32{{5}, {}}, 0) // 2 lists, 1 entry: 8 words
	blob := b.blob()
	edited := func(edit func(w []int32)) []byte {
		w := slices.Clone(b.buf[:8])
		edit(w)
		return mpi.Int32sAsBytes(w)
	}
	if xadj, adj, err := decodeCSRBlob(blob, kindU, 2); err != nil || !slices.Equal(xadj, b.xadj) || !slices.Equal(adj, b.adj) {
		t.Fatalf("the intact blob decodes to %v %v, %v", xadj, adj, err)
	}
	for _, tc := range []struct {
		name      string
		blob      []byte
		kind, dim int32
		want      string
	}{
		{"wrong kind", blob, kindL, 2, "of kind 0, want 1"},
		{"bad magic", edited(func(w []int32) { w[0] ^= 0xFF }), kindU, 2, "magic"},
		{"truncated header", blob[:8], kindU, 2, "header"},
		{"not whole words", blob[:len(blob)-1], kindU, 2, "header"},
		{"wrong dim", blob, kindU, 3, "has 2 lists, want 3"},
		{"truncated body", blob[:len(blob)-4], kindU, 2, "its header says"},
		{"over-long", append(slices.Clone(blob), 0, 0, 0, 0), kindU, 2, "its header says"},
		{"negative nnz", edited(func(w []int32) { w[3] = -1 }), kindU, 2, "its header says"},
		{"xadj not from 0", edited(func(w []int32) { w[4] = 1 }), kindU, 2, "row pointers span [1, 1)"},
		{"bad xadj end", edited(func(w []int32) { w[6] = 0 }), kindU, 2, "row pointers span [0, 0)"},
	} {
		if _, _, err := decodeCSRBlob(tc.blob, tc.kind, tc.dim); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeCSRBlob: whatever bytes arrive as an operand, the decoder
// returns an error or views that re-encode — through the resident block
// constructor — to exactly those bytes; it never panics.
func FuzzDecodeCSRBlob(f *testing.F) {
	g, err := rmat.G500.Generate(6, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	_, err = mpi.Run(4, testCfg(), func(c *mpi.Comm) (any, error) {
		p, err := prepareOn(c, g, 2, 2, EnumJIK) // a SUMMA state keeps its L classes
		if c.Rank() == 1 {
			seeds = [][]byte{slices.Clone(p.blk.u[0].blob()), slices.Clone(p.blk.l[0].byCols().blob())}
		}
		return nil, err
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		dim := int32(binary.LittleEndian.Uint32(s[8:]))
		f.Add(s, int32(kindU), dim)
		f.Add(s, int32(kindL), dim)
		f.Add(s[:len(s)-4], int32(kindU), dim)
	}
	f.Fuzz(func(t *testing.T, blob []byte, kind, dim int32) {
		xadj, adj, err := decodeCSRBlob(blob, kind, dim)
		if err != nil {
			return
		}
		b := newBlock(kind, dim, len(adj), 0)
		copy(b.xadj, xadj)
		copy(b.adj, adj)
		if !bytes.Equal(b.blob(), blob) {
			t.Fatalf("views of a %d-byte blob re-encode to %d different bytes", len(blob), len(b.blob()))
		}
	})
}
