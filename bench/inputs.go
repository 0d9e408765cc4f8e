package main

import (
	"fmt"
	"math/rand"

	"tc2d"
)

// Every input is made here, from the seed: the program under test receives
// finished graphs and finished update batches and nothing else.

const (
	edgeFactor = 16
	batchSize  = 512
	// hotFraction is the share of the vertices the write-hot stream draws
	// both endpoints from. It must stay under the cluster's default
	// IncrementalRebuildFraction (0.1) so that staleness rebuilds take the
	// incremental path.
	hotFraction = 0.04
)

// genGraph builds the workload's graph. RMAT comes from the library's own
// generator with the Graph500 quadrants (.57,.19,.19,.05); the uniform graph
// is drawn here so that its flat degree profile owes nothing to the code
// under test.
func genGraph(kind string, scale int, seed uint64) (*tc2d.Graph, error) {
	switch kind {
	case "rmat":
		return tc2d.GenerateRMAT(tc2d.G500, scale, edgeFactor, seed)
	case "er":
		n := int32(1) << scale
		rng := rand.New(rand.NewSource(int64(seed)))
		edges := make([]tc2d.Edge, 0, edgeFactor*int(n))
		for len(edges) < cap(edges) {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u != v {
				edges = append(edges, tc2d.Edge{U: u, V: v})
			}
		}
		return tc2d.NewGraph(n, edges)
	}
	return nil, fmt.Errorf("unknown graph kind %q", kind)
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func keyEdge(k uint64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

// stream generates update batches against a mirror of the graph, so that
// every operation is effective: a delete names an edge the mirror holds, an
// insert one it lacks, and no batch names an edge twice (delta rejects a
// batch that does). The mirror is also the oracle's input: graph() is what
// the cluster must hold once every generated batch has been applied.
type stream struct {
	rng  *rand.Rand
	n    int32
	cand []int32             // endpoints are drawn from here; nil means every vertex
	has  map[uint64]struct{} // every present edge
	pool []uint64            // present edges with both endpoints eligible, the delete candidates
	gone map[uint64]struct{} // edges deleted by the batch being built
}

// newStream mirrors g. With hot > 0 both endpoints of every update come from
// a seed-chosen set of hot·n vertices; otherwise they are uniform.
func newStream(g *tc2d.Graph, seed uint64, hot float64) *stream {
	s := &stream{
		rng: rand.New(rand.NewSource(int64(seed) ^ 0x5bd1e995)),
		n:   g.N,
		// Room for twice the edges: the stream keeps the edge count about
		// level, and a map that grows in the middle of a window would show
		// up in the harness process's resident_mb.
		has:  make(map[uint64]struct{}, 2*g.NumEdges()),
		gone: make(map[uint64]struct{}, batchSize),
	}
	var isHot []bool
	if hot > 0 {
		k := int(hot * float64(g.N))
		s.cand = make([]int32, 0, k)
		isHot = make([]bool, g.N)
		for _, v := range s.rng.Perm(int(g.N))[:k] {
			s.cand = append(s.cand, int32(v))
			isHot[v] = true
		}
	}
	for u := int32(0); u < g.N; u++ {
		for _, v := range g.NeighborsAbove(u) {
			k := edgeKey(u, v)
			s.has[k] = struct{}{}
			if isHot == nil || (isHot[u] && isHot[v]) {
				s.pool = append(s.pool, k)
			}
		}
	}
	return s
}

func (s *stream) endpoint() int32 {
	if s.cand != nil {
		return s.cand[s.rng.Intn(len(s.cand))]
	}
	return s.rng.Int31n(s.n)
}

// next builds one batch and applies it to the mirror. Half of it deletes,
// unless the delete pool is small: then at most an eighth of the pool goes,
// so a hot set that starts with few internal edges grows some first.
func (s *stream) next() []tc2d.EdgeUpdate {
	batch := make([]tc2d.EdgeUpdate, 0, batchSize)
	clear(s.gone)
	for dels := min(batchSize/2, len(s.pool)/8); dels > 0; dels-- {
		i := s.rng.Intn(len(s.pool))
		k := s.pool[i]
		s.pool[i] = s.pool[len(s.pool)-1]
		s.pool = s.pool[:len(s.pool)-1]
		delete(s.has, k)
		s.gone[k] = struct{}{}
		u, v := keyEdge(k)
		batch = append(batch, tc2d.EdgeUpdate{U: u, V: v, Op: tc2d.UpdateDelete})
	}
	for len(batch) < batchSize {
		u, v := s.endpoint(), s.endpoint()
		k := edgeKey(u, v)
		if _, present := s.has[k]; u == v || present {
			continue
		}
		if _, deleted := s.gone[k]; deleted {
			continue
		}
		s.has[k] = struct{}{}
		s.pool = append(s.pool, k)
		batch = append(batch, tc2d.EdgeUpdate{U: u, V: v, Op: tc2d.UpdateInsert})
	}
	return batch
}

// graph materialises the mirror.
func (s *stream) graph() (*tc2d.Graph, error) {
	edges := make([]tc2d.Edge, 0, len(s.has))
	for k := range s.has {
		u, v := keyEdge(k)
		edges = append(edges, tc2d.Edge{U: u, V: v})
	}
	return tc2d.NewGraph(s.n, edges)
}

// oracle is the sequential reference count of the mirror.
func (s *stream) oracle() (int64, error) {
	g, err := s.graph()
	if err != nil {
		return 0, err
	}
	return tc2d.CountSequential(g), nil
}
