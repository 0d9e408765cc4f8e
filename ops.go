package tc2d

// The epoch-op table. Everything a resident cluster does on its ranks —
// build, count, apply, the two rebuilds, snapshot encode, restore — is one
// entry of ops, defined once as a function over (the rank's
// communicator, the rank-resident store, typed args) → reply. Both engines
// run the same entry: the in-process engine hands the typed args to every
// rank goroutine by pointer (cluster.go), the coordinator ships the op name
// with the args in their wire form and the worker's dispatch decodes them and
// calls the same function (remote.go, worker.go). An eighth op is one new
// entry here and nothing anywhere else.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/graph"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

// Epoch operation names: the keys of the op table and the op field of the
// coordinator/worker envelope.
const (
	opBuild       = "build"        // prepare the resident state from a graph source
	opCount       = "count"        // one counting query
	opApply       = "apply"        // one coalesced write super-batch
	opRebuildInc  = "rebuild_inc"  // incremental (churn-proportional) rebuild
	opRebuildFull = "rebuild_full" // full-pipeline rebuild
	opEncodeSnap  = "encode_snap"  // encode per-rank snapshot blobs, reset dirty tracking
	opRestore     = "restore"      // install one snapshot chain
)

// Typed failures of the dispatch seam, so a caller (or a test) can tell a
// protocol violation from an op that ran and failed.
var (
	errUnknownOp  = errors.New("tc2d: unknown epoch operation")
	errBadOpArgs  = errors.New("tc2d: epoch operation arguments do not decode")
	errNoResident = errors.New("tc2d: rank holds no resident state")
)

// The args types below are each op's typed argument. Their exported fields
// are the wire form (gob); unexported fields are process-local inputs that
// never travel as part of the struct — the op's codec moves them as the
// rank-addressed payload instead, or leaves them behind.

// wireRMAT describes a distributed RMAT generation (no graph bytes travel:
// every rank generates its own 1D slice).
type wireRMAT struct {
	Params     RMATParams
	Scale      int
	EdgeFactor int
	Seed       uint64
}

// wireBuild parameterizes opBuild, and — its Track field alone — opRebuildFull.
// The schedule follows from the world size and the rule is the paper's
// ⟨j,i,k⟩; the resident state records both from here on.
type wireBuild struct {
	Track bool // enable snapshot dirty tracking (durable clusters)
	RMAT  *wireRMAT

	// graph is the scatter source when RMAT is nil, read at rank 0 only; on
	// the wire it is rank 0's payload.
	graph *Graph
}

// wireSnap parameterizes opEncodeSnap.
type wireSnap struct{ Delta bool }

// wireRestore parameterizes opRestore, which installs a whole snapshot chain
// in one epoch.
type wireRestore struct {
	Track bool // enable snapshot dirty tracking on the restored state

	// fetch yields one rank's verified blobs of the chain, base first. In
	// process every rank calls it from its own goroutine (parallel file
	// reads); on the wire a rank's blobs are its payload, one gob [][]byte.
	fetch func(rank int) ([][]byte, error)
}

// wireMeta is the graph metadata rank 0 piggybacks on its epoch replies. The
// cluster caches the newest copy, so metadata reads (Info, staleness checks,
// metrics) never need an epoch of their own. All fields are global —
// identical on every rank — by construction.
type wireMeta struct {
	N, M, Wedges int64
	BaseN        int64
	OverflowN    int64
	SpaceVersion int64
	PreOps       int64
	DegreeDirty  int
}

// overflowFraction is (N-BaseN)/N, the share of the id space outside the
// degree-ordered layout.
func (m wireMeta) overflowFraction() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.OverflowN) / float64(m.N)
}

func metaOf(pr *core.Prepared) wireMeta {
	sp := pr.Space()
	return wireMeta{
		N: pr.N(), M: pr.M(), Wedges: pr.Wedges(),
		BaseN: sp.BaseN, OverflowN: sp.OverflowN(), SpaceVersion: sp.Version,
		PreOps: pr.PreOps(), DegreeDirty: pr.DegreeDirtyCount(),
	}
}

// opReply is what one rank answers to one op. A nil reply means the rank has
// nothing to say; by convention only rank 0 answers, with Meta attached
// (reply0), except opEncodeSnap, where every rank answers its Blob.
type opReply struct {
	Meta  *wireMeta
	Count *core.Result
	Apply *delta.Result
	Stats *delta.RebuildStats
	Blob  []byte
}

func reply0(c *mpi.Comm, pr *core.Prepared, rep opReply) *opReply {
	if c.Rank() != 0 {
		return nil
	}
	m := metaOf(pr)
	rep.Meta = &m
	return &rep
}

// gobEncode serializes one wire value. The wire structs are all plain
// exported fields, so encoding cannot fail on well-formed values.
func gobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("tc2d: wire encode: %v", err))
	}
	return buf.Bytes()
}

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// rankStore is the rank-resident state of one process: the Prepared
// structure of every rank it hosts, keyed by global rank — all ranks
// in-process, a worker's span in a tcworker. Epoch goroutines of different
// ranks run concurrently, so the maps are lock-guarded; a given rank's
// entries are only ever touched by that rank's epoch goroutine.
type rankStore struct {
	mu      sync.RWMutex
	prep    map[int]*core.Prepared
	metrics *obs.Registry
}

func newRankStore(reg *obs.Registry) *rankStore {
	return &rankStore{prep: make(map[int]*core.Prepared), metrics: reg}
}

func (st *rankStore) get(rank int) (*core.Prepared, error) {
	st.mu.RLock()
	pr := st.prep[rank]
	st.mu.RUnlock()
	if pr == nil {
		return nil, fmt.Errorf("%w: rank %d (worker joined after build; awaiting restore)", errNoResident, rank)
	}
	return pr, nil
}

func (st *rankStore) put(rank int, pr *core.Prepared) {
	pr.SetMetrics(st.metrics)
	st.mu.Lock()
	st.prep[rank] = pr
	st.mu.Unlock()
}

// epochOp is one entry of the op table.
type epochOp struct {
	// read ops run as concurrent read epochs, the others exclusively.
	read bool
	// run is the op's one body, executed by every rank of either engine.
	run func(c *mpi.Comm, st *rankStore, args any) (*opReply, error)
	// encode and decode are the wire form of args, used only between a
	// coordinator and its workers: common is broadcast to every rank,
	// perRank[r] delivered to rank r alone (mine, on the receiving side).
	encode func(args any, ranks int) (common []byte, perRank map[int][]byte, err error)
	decode func(common, mine []byte) (any, error)
}

// gobOp declares an op whose args are one gob-encoded struct broadcast to
// every rank.
func gobOp[A any](read bool, run func(*mpi.Comm, *rankStore, *A) (*opReply, error)) epochOp {
	return epochOp{
		read: read,
		run: func(c *mpi.Comm, st *rankStore, args any) (*opReply, error) {
			return run(c, st, args.(*A))
		},
		encode: func(args any, _ int) ([]byte, map[int][]byte, error) {
			return gobEncode(args.(*A)), nil, nil
		},
		decode: func(common, _ []byte) (any, error) {
			a := new(A)
			return a, gobDecode(common, a)
		},
	}
}

// bareOp declares an op that takes no args; nothing travels but its name, and
// a worker refuses args it was not meant to get.
func bareOp(read bool, run func(*mpi.Comm, *core.Prepared) (*opReply, error)) epochOp {
	return epochOp{
		read: read,
		run: func(c *mpi.Comm, st *rankStore, _ any) (*opReply, error) {
			pr, err := st.get(c.Rank())
			if err != nil {
				return nil, err
			}
			return run(c, pr)
		},
		encode: func(any, int) ([]byte, map[int][]byte, error) { return nil, nil, nil },
		decode: func(common, _ []byte) (any, error) {
			if len(common) != 0 {
				return nil, fmt.Errorf("%d bytes of args for an op that takes none", len(common))
			}
			return nil, nil
		},
	}
}

// ops is the table. Ranks of one epoch never disagree on the entry: the
// in-process engine hands all of them the same value, the coordinator sends
// all workers the same name.
var ops = map[string]epochOp{
	opBuild:       buildEntry(),
	opCount:       countEntry(),
	opApply:       applyEntry(),
	opRebuildInc:  bareOp(false, rebuildIncOp),
	opRebuildFull: gobOp(false, rebuildFullOp),
	opEncodeSnap:  gobOp(true, encodeSnapOp),
	opRestore:     restoreEntry(),
}

// buildOp builds the rank's share of the graph — scattered from rank 0 or
// generated in place — and runs the preprocessing pipeline over it.
func buildOp(c *mpi.Comm, st *rankStore, b *wireBuild) (*opReply, error) {
	var in dgraph.Input = dgraph.ScatterInput{Graph: b.graph}
	if rm := b.RMAT; rm != nil {
		in = dgraph.RMATInput{Params: rm.Params, Scale: rm.Scale, EdgeFactor: rm.EdgeFactor, Seed: rm.Seed}
	}
	d, err := in.Build(c)
	if err != nil {
		return nil, err
	}
	qr, qc := mpi.FactorGrid(c.Size())
	pr, err := core.PrepareGrid(c, d, qr, qc, mpi.SquareSide(c.Size()) < 0, core.Options{Metrics: st.metrics})
	if err != nil {
		return nil, err
	}
	if b.Track {
		pr.EnableSnapshotTracking()
	}
	st.put(c.Rank(), pr)
	return reply0(c, pr, opReply{}), nil
}

// buildEntry is gobOp plus the graph as rank 0's payload.
func buildEntry() epochOp {
	op := gobOp(false, buildOp)
	op.encode = func(args any, _ int) ([]byte, map[int][]byte, error) {
		b := args.(*wireBuild)
		var perRank map[int][]byte
		if b.RMAT == nil && b.graph != nil {
			perRank = map[int][]byte{0: gobEncode(b.graph)}
		}
		return gobEncode(b), perRank, nil
	}
	decodeCommon := op.decode
	op.decode = func(common, mine []byte) (any, error) {
		args, err := decodeCommon(common, nil)
		if err != nil || len(mine) == 0 {
			return args, err
		}
		b := args.(*wireBuild)
		b.graph = new(Graph)
		if err := gobDecode(mine, b.graph); err != nil {
			return nil, err
		}
		// The linear shape check, not Validate: its symmetry pass searches
		// a row per entry.
		return b, graph.CheckShape(b.graph)
	}
	return op
}

// countEntry is a bare read op that counts under the rule the resident state
// was built for. In-process its args are the caller's trace span (nil when
// untraced), under which every rank hangs its span tree (see
// core.CountPrepared); on the wire nothing travels.
func countEntry() epochOp {
	op := bareOp(true, nil)
	op.run = func(c *mpi.Comm, st *rankStore, args any) (*opReply, error) {
		pr, err := st.get(c.Rank())
		if err != nil {
			return nil, err
		}
		trace, _ := args.(*obs.Span)
		res, err := core.CountPrepared(c, pr, core.Options{Metrics: st.metrics, Trace: trace})
		if err != nil {
			return nil, err
		}
		return reply0(c, pr, opReply{Count: res}), nil
	}
	return op
}

// applyEntry takes a []delta.Update; its wire form is the WAL record framing
// (encodeBatch), so a logged batch and a shipped batch are the same bytes.
func applyEntry() epochOp {
	return epochOp{
		run: func(c *mpi.Comm, st *rankStore, args any) (*opReply, error) {
			pr, err := st.get(c.Rank())
			if err != nil {
				return nil, err
			}
			res, err := delta.Apply(c, pr, args.([]delta.Update))
			if err != nil {
				return nil, err
			}
			return reply0(c, pr, opReply{Apply: res}), nil
		},
		encode: func(args any, _ int) ([]byte, map[int][]byte, error) {
			return encodeBatch(args.([]delta.Update)), nil, nil
		},
		decode: func(common, _ []byte) (any, error) { return decodeBatch(common) },
	}
}

// rebuildIncOp re-sorts only the degree-dirty labels, in place.
func rebuildIncOp(c *mpi.Comm, pr *core.Prepared) (*opReply, error) {
	s, err := delta.RebuildIncremental(c, pr)
	if err != nil {
		return nil, err
	}
	return reply0(c, pr, opReply{Stats: s}), nil
}

// rebuildFullOp swaps the rank's state for a freshly prepared one. The
// replacement shares nothing with what any snapshot captured, so it needs its
// own dirty tracking (b.Track).
func rebuildFullOp(c *mpi.Comm, st *rankStore, b *wireBuild) (*opReply, error) {
	pr, err := st.get(c.Rank())
	if err != nil {
		return nil, err
	}
	np, err := delta.Rebuild(c, pr)
	if err != nil {
		return nil, err
	}
	if b.Track {
		np.EnableSnapshotTracking()
	}
	st.put(c.Rank(), np)
	return reply0(c, np, opReply{}), nil
}

// encodeSnapOp encodes the rank's snapshot blob, full or delta, and resets
// the dirty row/label sets the blob consumed, so the next delta carries only
// churn from here on; every rank answers and the caller writes the files. It
// runs as a read epoch: the caller's gate excludes writers, and readers never
// touch the tracking maps. A snapshot that is not published after this epoch
// makes the caller's next snapshot a base, which needs no dirty sets.
func encodeSnapOp(c *mpi.Comm, st *rankStore, s *wireSnap) (*opReply, error) {
	pr, err := st.get(c.Rank())
	if err != nil {
		return nil, err
	}
	rep := new(opReply)
	if s.Delta {
		rep.Blob = core.EncodePreparedDelta(pr)
	} else {
		rep.Blob = core.EncodePrepared(pr)
	}
	pr.ResetSnapshotDirty()
	return rep, nil
}

// restoreOp installs one snapshot chain in one epoch: every rank decodes its
// base and applies each delta onto it locally, and only once every rank has
// agreed that its whole chain decoded does any rank replace its resident
// state, so a restore that fails anywhere leaves all ranks serving what they
// served before.
func restoreOp(c *mpi.Comm, st *rankStore, r *wireRestore) (*opReply, error) {
	rank := c.Rank()
	var pr *core.Prepared
	blobs, err := r.fetch(rank)
	if err == nil {
		pr, err = core.DecodeChain(blobs, rank, c.Size())
	}
	ok := int64(1)
	if err != nil {
		ok = 0
	}
	if c.AllreduceInt64(ok, mpi.OpMin) == 0 {
		if err == nil {
			err = errors.New("tc2d: restore failed on another rank")
		}
		return nil, err
	}
	// Track dirtiness from the restored state on, so the next snapshot can
	// continue the chain as a delta.
	if r.Track {
		pr.EnableSnapshotTracking()
	}
	st.put(rank, pr)
	return reply0(c, pr, opReply{}), nil
}

// restoreEntry is gobOp plus each rank's chain blobs as its payload.
func restoreEntry() epochOp {
	op := gobOp(false, restoreOp)
	op.encode = func(args any, ranks int) ([]byte, map[int][]byte, error) {
		r := args.(*wireRestore)
		perRank := make(map[int][]byte, ranks)
		for rank := 0; rank < ranks; rank++ {
			blobs, err := r.fetch(rank)
			if err != nil {
				return nil, nil, err
			}
			perRank[rank] = gobEncode(blobs)
		}
		return gobEncode(r), perRank, nil
	}
	decodeCommon := op.decode
	op.decode = func(common, mine []byte) (any, error) {
		args, err := decodeCommon(common, nil)
		if err != nil {
			return nil, err
		}
		var blobs [][]byte
		if err := gobDecode(mine, &blobs); err != nil {
			return nil, err
		}
		args.(*wireRestore).fetch = func(int) ([][]byte, error) { return blobs, nil }
		return args, nil
	}
	return op
}
