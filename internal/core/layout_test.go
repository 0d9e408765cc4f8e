package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// sameBlock reports whether two operand blocks hold the same entries, a
// block not created yet counting as one without entries.
func sameBlock(a, b *csrBlock) bool {
	if a.xadj == nil || b.xadj == nil {
		return len(a.adj) == 0 && len(b.adj) == 0
	}
	return a.rows == b.rows && slices.Equal(a.xadj, b.xadj) && slices.Equal(a.adj, b.adj)
}

// sameLayout compares the resident arrays the shift and the broadcast state
// of one rank share: all but the L block, which only the broadcast state
// keeps (see transposedL).
func sameLayout(shift, bcast *Prepared) error {
	x, y := shift.blk, bcast.blk
	switch {
	case len(x.u) != 1 || len(y.u) != 1 || len(x.l) != 0 || len(y.l) != 1:
		return fmt.Errorf("a square grid holds %d/%d U and %d/%d L classes, want 1/1 and 0/1", len(x.u), len(y.u), len(x.l), len(y.l))
	case x.nRows != y.nRows || x.nCols != y.nCols || x.maxURow != y.maxURow:
		return fmt.Errorf("dimensions %d×%d maxURow %d vs %d×%d maxURow %d", x.nRows, x.nCols, x.maxURow, y.nRows, y.nCols, y.maxURow)
	case !sameBlock(&x.task, &y.task) || !slices.Equal(x.taskRows, y.taskRows):
		return fmt.Errorf("task blocks differ")
	case !sameBlock(&x.u[0], &y.u[0]):
		return fmt.Errorf("U blocks differ")
	}
	return nil
}

// transposedL holds the L blocks of the broadcast states on a q × q grid to
// what the shift states read in their place: L_{x,y} of rank (x,y) must be
// the U block of rank (y,x), list for list. It reads every rank's state, so
// it runs between epochs.
func transposedL(shift, bcast []*Prepared, q int) error {
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			if !sameBlock(bcast[x*q+y].blk.l[0].byCols(), &shift[y*q+x].blk.u[0]) {
				return fmt.Errorf("L_{%d,%d} of the broadcast state is not the U block of shift rank (%d,%d)", x, y, y, x)
			}
		}
	}
	return nil
}

// TestSquareGridOneLayout: on a square grid the shift schedule and the
// (forced) broadcast schedule run over the very same resident arrays — what
// the blocks/summaBlocks fork used to store twice — but for the L blocks,
// which the shift schedule reads from the transposed ranks' U blocks, and
// stay that way under the write path: same task and U arrays, and each
// broadcast L_{x,y} the shift U_{y,x}, after Prepare and after each of 50
// mixed update batches with a vertex-space growth in the middle, and equal
// Triangles, Probes and MapTasks whenever both are counted.
func TestSquareGridOneLayout(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 21)
	for _, p := range []int{4, 9} {
		q := mpi.SquareSide(p)
		w := mpi.NewWorld(p, testCfg())
		shift, bcast := make([]*Prepared, p), make([]*Prepared, p)
		edgeLists := make([][][2]int32, p)
		run := func(what string, fn func(c *mpi.Comm) (any, error)) []any {
			t.Helper()
			res, err := w.Run(fn)
			if err != nil {
				w.Close()
				t.Fatalf("p=%d %s: %v", p, what, err)
			}
			return res
		}
		run("prepare", func(c *mpi.Comm) (any, error) {
			in, err := dgraph.ScatterInput{Graph: g}.Build(c)
			if err != nil {
				return nil, err
			}
			r := c.Rank()
			if shift[r], err = PrepareGrid(c, in, q, q, false, Options{}); err != nil {
				return nil, err
			}
			if bcast[r], err = PrepareGrid(c, in, q, q, true, Options{}); err != nil {
				return nil, err
			}
			// The U entries of every rank are the graph's edges in labels.
			blk := shift[r].blk
			u := &blk.u[0]
			for a := int32(0); a < u.rows; a++ {
				for _, k := range u.row(a) {
					edgeLists[r] = append(edgeLists[r], [2]int32{a*int32(q) + int32(blk.row), k*int32(q) + int32(blk.col)})
				}
			}
			return nil, sameLayout(shift[r], bcast[r])
		})
		if err := transposedL(shift, bcast, q); err != nil {
			w.Close()
			t.Fatalf("p=%d prepare: %v", p, err)
		}
		compare := func(when string) {
			t.Helper()
			res := run(when, func(c *mpi.Comm) (any, error) {
				r := c.Rank()
				if err := sameLayout(shift[r], bcast[r]); err != nil {
					return nil, fmt.Errorf("rank %d: %w", r, err)
				}
				a, err := CountPrepared(c, shift[r], Options{})
				if err != nil {
					return nil, err
				}
				b, err := CountPrepared(c, bcast[r], Options{})
				if err != nil {
					return nil, err
				}
				if a.Triangles != b.Triangles || a.Probes != b.Probes || a.MapTasks != b.MapTasks {
					return nil, fmt.Errorf("shift counts %d triangles / %d probes / %d tasks, broadcast %d / %d / %d",
						a.Triangles, a.Probes, a.MapTasks, b.Triangles, b.Probes, b.MapTasks)
				}
				return a.Triangles, nil
			})
			if when == "prepare" && res[0].(int64) != seqtc.Count(g) {
				t.Fatalf("p=%d: %d triangles, the oracle counts %d", p, res[0], seqtc.Count(g))
			}
		}
		compare("prepare")

		present := make(map[[2]int32]bool)
		var edges [][2]int32
		for _, list := range edgeLists {
			for _, e := range list {
				present[e] = true
				edges = append(edges, e)
			}
		}
		rng := rand.New(rand.NewSource(int64(p)))
		n := int32(g.N)
		for batch := 0; batch < 50; batch++ {
			if batch == 25 {
				n += 17
			}
			var ins, del [][2]int32
			for i := 0; i < 8 && len(edges) > 0; i++ {
				j := rng.Intn(len(edges))
				del = append(del, edges[j])
				edges[j] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
			}
			for len(ins) < 12 {
				a, b := rng.Int31n(n), rng.Int31n(n)
				if a > b {
					a, b = b, a
				}
				if e := [2]int32{a, b}; a != b && !present[e] {
					present[e] = true // a deleted pair stays marked until the batch is out
					ins = append(ins, e)
				}
			}
			for _, e := range del {
				delete(present, e)
			}
			edges = append(edges, ins...)
			run(fmt.Sprint("batch ", batch), func(c *mpi.Comm) (any, error) {
				for _, prep := range []*Prepared{shift[c.Rank()], bcast[c.Rank()]} {
					if err := prep.GrowTo(int64(n)); err != nil {
						return nil, err
					}
					splice(c, prep, ins, del)
				}
				return nil, sameLayout(shift[c.Rank()], bcast[c.Rank()])
			})
			if err := transposedL(shift, bcast, q); err != nil {
				w.Close()
				t.Fatalf("p=%d batch %d: %v", p, batch, err)
			}
			if batch%10 == 9 {
				compare(fmt.Sprint("batch ", batch))
			}
		}
		w.Close()
	}
}

// TestCreatedEmptyClassStaysEncoded is the case the fork kept apart: on the
// broadcast schedule a rank's operand class is created by its first insert,
// emptied again, and then snapshotted — it stays created and stays in the
// blob (base and delta), where a class that never existed is absent, and the
// restored state encodes to the live state's bytes.
func TestCreatedEmptyClassStaysEncoded(t *testing.T) {
	// One edge only: degree relabeling gives its endpoints the two top
	// labels, so the classes of a low label pair exist nowhere yet.
	const n = 36
	g, err := graph.FromEdges(n, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	edge := [][2]int32{{3, 8}}
	for _, w := range []struct{ p, qr, qc int }{{4, 2, 2}, {6, 2, 3}} {
		_, err := mpi.Run(w.p, testCfg(), func(c *mpi.Comm) (any, error) {
			prep, err := prepareOn(c, g, w.qr, w.qc, EnumJIK)
			if err != nil {
				return nil, err
			}
			base := EncodePrepared(prep)
			prep.EnableSnapshotTracking()
			never := createdClasses(prep.blk)
			splice(c, prep, edge, nil)
			created := createdClasses(prep.blk) - never
			if c.AllreduceInt64(int64(created), mpi.OpSum) == 0 {
				return nil, fmt.Errorf("the insert created no class on any rank; the case is not exercised")
			}
			splice(c, prep, nil, edge)
			if got := createdClasses(prep.blk) - never; got != created {
				return nil, fmt.Errorf("rank %d: emptying the classes left %d of %d created", c.Rank(), got, created)
			}
			live := EncodePrepared(prep)
			if created > 0 && len(live) <= len(base) {
				return nil, fmt.Errorf("rank %d: created-but-empty classes are missing from the %d-byte blob (%d before the insert)", c.Rank(), len(live), len(base))
			}
			for name, restore := range map[string]func() (*Prepared, error){
				"base": func() (*Prepared, error) { return DecodePrepared(live, c.Rank(), c.Size()) },
				"base+delta": func() (*Prepared, error) {
					return DecodeChain([][]byte{base, EncodePreparedDelta(prep)}, c.Rank(), c.Size())
				},
			} {
				twin, err := restore()
				if err != nil {
					return nil, fmt.Errorf("rank %d %s: %w", c.Rank(), name, err)
				}
				if got := createdClasses(twin.blk) - never; got != created {
					return nil, fmt.Errorf("rank %d %s: restored %d of %d created classes", c.Rank(), name, got, created)
				}
				if !bytes.Equal(EncodePrepared(twin), live) {
					return nil, fmt.Errorf("rank %d %s: restored state encodes differently from the live one", c.Rank(), name)
				}
			}
			res, err := CountPrepared(c, prep, Options{})
			if err != nil {
				return nil, err
			}
			if res.Triangles != 0 {
				return nil, fmt.Errorf("a one-edge graph counts %d triangles", res.Triangles)
			}
			return nil, nil
		})
		if err != nil {
			t.Errorf("%d×%d: %v", w.qr, w.qc, err)
		}
	}
}
