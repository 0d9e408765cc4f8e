// Package tc2d is a distributed-memory parallel triangle counting library —
// a from-scratch Go reproduction of Tom & Karypis, "A 2D Parallel Triangle
// Counting Algorithm for Distributed-Memory Architectures" (ICPP 2019).
//
// The core algorithm decomposes the triangle counting computation C[L] = U·L
// over a √p × √p process grid with a 2D cyclic distribution and schedules the
// √p partial products with Cannon's communication pattern. Ranks are
// goroutines exchanging messages through an MPI-like runtime with a
// LogGP-style virtual-time model. The one-shot Count and CountRMAT report the
// paper's modeled parallel phase times for any rank count; the resident
// Cluster and Follower report only real counts and wall-clock spans.
//
// # Quick start
//
//	g, _ := tc2d.NewGraph(4, []tc2d.Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
//	res, _ := tc2d.Count(g, tc2d.Options{Ranks: 4})
//	fmt.Println(res.Triangles) // 4
//
// Besides the paper's algorithm, the package exposes the sequential
// reference counters, the RMAT/Graph500 generators used for the paper's
// synthetic datasets, and graph statistics built on triangle counts
// (transitivity, clustering coefficients, edge support).
package tc2d

import (
	"fmt"
	"io"
	"runtime"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// Graph is a simple undirected graph in CSR form (adjacency lists sorted,
// both directions stored, no self loops or duplicates).
type Graph = graph.Graph

// Edge is one undirected edge.
type Edge = graph.Edge

// Result carries the outcome of a distributed count: the triangle count,
// operation counters and, set only by the one-shot Count/CountRMAT, the
// per-phase modeled parallel times and communication fractions. See the
// field documentation in the core package.
type Result = core.Result

// RMATParams are RMAT generator quadrant probabilities.
type RMATParams = rmat.Params

// Generator presets: the Graph500 parameters used for the paper's g500
// datasets and the scaled-down stand-ins for its real-world graphs.
var (
	// G500 is the Graph500 RMAT parameter set (a=0.57, b=c=0.19).
	G500 = rmat.G500
	// Twitterish skews the quadrants toward a Twitter-like degree profile.
	Twitterish = rmat.Twitterish
	// Friendsterish is the uniform-quadrant (Erdős–Rényi-like) preset, the
	// stand-in for Friendster's very low triangle density.
	Friendsterish = rmat.Friendsterish
)

// Options configures a distributed count or a resident cluster: its
// deployment settings only. The schedule follows from Ranks, every count
// enumerates by the paper's ⟨j,i,k⟩ rule, and a resident cluster's rebuild
// and snapshot policy is fixed (see Cluster.ApplyUpdates and
// Cluster.Snapshot). The zero value runs the paper's full configuration on 1
// rank.
type Options struct {
	// Ranks is the number of SPMD ranks (default 1): any positive count. A
	// perfect square runs Cannon shifts on a √p × √p grid, any other count
	// SUMMA broadcasts on the most square qr × qc grid.
	Ranks int

	// MaxVertices caps the elastic vertex space of a resident cluster:
	// update batches that would grow the graph beyond this many ids are
	// rejected with ErrVertexRange instead of allocating ever-larger
	// blocks. 0 (the default) leaves growth unbounded up to the int32 id
	// range. Ignored by one-shot counts.
	MaxVertices int64

	// PersistDir makes a resident cluster durable: NewCluster writes an
	// initial snapshot of the freshly prepared state there and logs every
	// committed write batch to a write-ahead log, so OpenCluster(dir, ...)
	// restores the cluster after a restart without re-running the
	// preprocessing pipeline. The directory must not already hold another
	// cluster's state (reopen that with OpenCluster). Empty (the default)
	// disables persistence. Ignored by one-shot counts.
	PersistDir string
	// NoWALSync disables the per-commit fsync of the write-ahead log:
	// acknowledged updates then survive a process crash (the OS page cache
	// holds the appended records) but not a power failure. Throughput for
	// durability; default off (every commit is fsynced before its callers
	// are acknowledged).
	NoWALSync bool

	// ComputeSlots bounds how many ranks run between messages. Each rank
	// computes on its own goroutine, so this is how many goroutines of the
	// process compute at once; 0 defaults to GOMAXPROCS.
	ComputeSlots int

	// Metrics is the observability registry the run publishes into: epoch
	// and per-rank communication/computation totals from the runtime,
	// kernel step/probe/intersection counters, and — for resident
	// clusters — query latencies, scheduler accounting and durability I/O.
	// Nil disables metric publication for one-shot counts; NewCluster
	// creates a private registry instead (read it back via
	// Cluster.Metrics), so a resident cluster is always observable.
	Metrics *obs.Registry
}

func (o Options) mpiConfig() mpi.Config {
	slots := o.ComputeSlots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return mpi.Config{ComputeSlots: slots, Metrics: o.Metrics}
}

func (o Options) ranks() (int, error) {
	p := o.Ranks
	if p == 0 {
		p = 1
	}
	if p < 0 {
		return 0, fmt.Errorf("tc2d: Ranks=%d", p)
	}
	return p, nil
}

// NewGraph builds a simple undirected graph from an edge list (self loops
// dropped, duplicates merged, both directions stored).
func NewGraph(n int32, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// ReadEdgeList parses a whitespace-separated text edge list ('#'/'%'
// comments allowed). Pass n <= 0 to infer the vertex count.
func ReadEdgeList(r io.Reader, n int32) (*Graph, error) {
	return graph.ReadEdgeList(r, n)
}

// WriteEdgeList writes the graph as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// GenerateRMAT generates an RMAT graph with 2^scale vertices and
// edgeFactor·2^scale raw edges (deduplicated), deterministically in seed.
func GenerateRMAT(params RMATParams, scale, edgeFactor int, seed uint64) (*Graph, error) {
	return params.Generate(scale, edgeFactor, seed)
}

// Count counts the triangles of g with the paper's 2D distributed algorithm
// on opt.Ranks SPMD ranks (goroutines) and returns the global result.
// Square rank counts use Cannon's shift schedule (the paper's algorithm);
// other rank counts use the SUMMA broadcast schedule on the most square
// qr × qc grid (the extension sketched in the paper's conclusion).
func Count(g *Graph, opt Options) (*Result, error) {
	return countInput(dgraph.ScatterInput{Graph: g}, opt)
}

// CountRMAT generates an RMAT graph in parallel on the ranks themselves (as
// the paper does for its g500 inputs) and counts its triangles.
func CountRMAT(params RMATParams, scale, edgeFactor int, seed uint64, opt Options) (*Result, error) {
	in := dgraph.RMATInput{Params: params, Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
	return countInput(in, opt)
}

func countInput(in dgraph.Input, opt Options) (*Result, error) {
	p, err := opt.ranks()
	if err != nil {
		return nil, err
	}
	world := mpi.NewWorld(p, opt.mpiConfig())
	defer world.Close()
	qr, qc := mpi.FactorGrid(p)
	summa := mpi.SquareSide(p) < 0
	results, err := world.Run(func(c *mpi.Comm) (any, error) {
		d, err := in.Build(c)
		if err != nil {
			return nil, err
		}
		return core.CountGrid(c, d, qr, qc, summa, core.Options{Metrics: opt.Metrics})
	})
	if err != nil {
		return nil, err
	}
	return results[0].(*core.Result), nil
}

// CountSequential counts triangles with the sequential reference (degree
// ordering + map-based ⟨j,i,k⟩). It is the oracle the distributed algorithm
// is validated against, not the t₁ baseline for speedups: that is Count
// with Ranks: 1, the distributed kernel on one rank.
func CountSequential(g *Graph) int64 { return seqtc.Count(g) }

// WedgeCount returns the global wedge count Σ_v d(v)·(d(v)-1)/2 of g — the
// denominator of the transitivity ratio.
func WedgeCount(g *Graph) int64 {
	var wedges int64
	for v := int32(0); v < g.N; v++ {
		d := int64(g.Degree(v))
		wedges += d * (d - 1) / 2
	}
	return wedges
}

// TransitivityFromTotals returns the global clustering coefficient
// 3·triangles / wedges from already-known totals. This is the reuse path
// for callers that hold a count — a distributed Result, or the maintained
// totals of a resident Cluster — so the sequential reference counter never
// re-runs; Cluster.Transitivity and the plain Transitivity are both built
// on it.
func TransitivityFromTotals(triangles, wedges int64) float64 {
	if wedges == 0 {
		return 0
	}
	return 3 * float64(triangles) / float64(wedges)
}

// Transitivity returns the global clustering coefficient of g:
// 3·triangles / #wedges, where a wedge is an unordered path of length two.
// It recounts sequentially; callers that already hold totals (a Result, a
// resident Cluster) should use TransitivityFromTotals or
// Cluster.Transitivity instead.
func Transitivity(g *Graph) float64 {
	return TransitivityFromTotals(seqtc.Count(g), WedgeCount(g))
}

// ClusteringCoefficientsFromCounts derives each vertex's local clustering
// coefficient (triangles through v over d(v)·(d(v)-1)/2) and the average
// over vertices of degree >= 2 from already-computed per-vertex triangle
// counts — the reuse path when the counts come from an earlier pass.
func ClusteringCoefficientsFromCounts(g *Graph, counts []int64) (perVertex []float64, average float64) {
	perVertex = make([]float64, g.N)
	var sum float64
	var eligible int64
	for v := int32(0); v < g.N; v++ {
		d := int64(g.Degree(v))
		if d < 2 {
			continue
		}
		perVertex[v] = float64(counts[v]) / float64(d*(d-1)/2)
		sum += perVertex[v]
		eligible++
	}
	if eligible > 0 {
		average = sum / float64(eligible)
	}
	return perVertex, average
}

// ClusteringCoefficients returns each vertex's local clustering coefficient
// and the average over vertices of degree >= 2, computing the per-vertex
// triangle counts with the sequential reference counter.
func ClusteringCoefficients(g *Graph) (perVertex []float64, average float64) {
	return ClusteringCoefficientsFromCounts(g, seqtc.PerVertexCounts(g))
}

// EdgeSupport returns the number of triangles containing each undirected
// edge — the quantity a k-truss decomposition is built on.
func EdgeSupport(g *Graph) map[Edge]int32 { return seqtc.EdgeSupport(g) }
