// Package optpsp re-implements the blocked 1D algorithm of Kanewala et al.
// ("Distributed, Shared-Memory Parallel Triangle Counting", PASC'18) that the
// paper compares against in Table 6 as OPT-PSP: a push-based set-intersection
// formulation in which vertices and their adjacency lists are processed in
// blocks to curb the number of messages generated.
//
// Per block round, every rank pushes the degree-oriented adjacency lists of
// its vertices in the current global id window to the owners of their
// out-neighbours, which perform the sorted-merge intersections. The block
// size trades message count against peak buffer memory.
package optpsp

import (
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// Options tunes the baseline.
type Options struct {
	// BlockSize is the width of the global vertex id window processed per
	// round (default: n/(4p) clamped to at least 1024).
	BlockSize int64
}

// Result reports the outcome and phase breakdown.
type Result struct {
	Triangles  int64
	SetupTime  float64
	CountTime  float64
	TotalTime  float64
	Rounds     int
	PushedInts int64
}

func intersectSorted(a, b []int32) int64 {
	var n int64
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			n++
			x++
			y++
		}
	}
	return n
}

// Count runs the OPT-PSP-style baseline.
func Count(c *mpi.Comm, in *dgraph.Dist1D, opt Options) (*Result, error) {
	res := &Result{}
	p := c.Size()

	c.Barrier()
	t0 := c.Time()
	g := dgraph.RelabelByDegree(c, in)
	c.Barrier()
	t1 := c.Time()
	res.SetupTime = t1 - t0

	blockSize := opt.BlockSize
	if blockSize <= 0 {
		blockSize = g.N / int64(4*p)
		if blockSize < 1024 {
			blockSize = 1024
		}
	}

	var localTris int64
	for lo := int64(0); lo < g.N; lo += blockSize {
		hi := lo + blockSize
		if hi > g.N {
			hi = g.N
		}
		res.Rounds++
		push := make([][]int32, p)
		seen := make([]bool, p)
		// Only owned vertices inside the current window participate.
		beg, end := g.VBeg, g.VEnd
		if int64(beg) < lo {
			beg = int32(lo)
		}
		if int64(end) > hi {
			end = int32(hi)
		}
		for u := beg; u < end; u++ {
			above := g.Above(u)
			for i := range seen {
				seen[i] = false
			}
			for _, v := range above {
				r := dgraph.BlockOwner(v, g.N, p)
				if r == c.Rank() {
					localTris += intersectSorted(above, g.Above(v))
					continue
				}
				if !seen[r] {
					seen[r] = true
					push[r] = append(push[r], u, int32(len(above)))
					push[r] = append(push[r], above...)
					res.PushedInts += int64(len(above)) + 2
				}
			}
		}
		got := c.AlltoallvInt32(push)
		for _, part := range got {
			i := 0
			for i < len(part) {
				d := int(part[i+1])
				list := part[i+2 : i+2+d]
				i += 2 + d
				for _, v := range list {
					if v >= g.VBeg && v < g.VEnd {
						localTris += intersectSorted(list, g.Above(v))
					}
				}
			}
		}
	}
	res.Triangles = c.AllreduceInt64(localTris, mpi.OpSum)

	c.Barrier()
	t2 := c.Time()
	res.CountTime = t2 - t1
	res.TotalTime = t2 - t0
	return res, nil
}
