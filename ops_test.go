package tc2d

import (
	"bytes"
	"errors"
	"testing"

	"tc2d/internal/delta"
	"tc2d/internal/mpi"
)

// dispatchOnce runs one dispatch call as rank 0 of a one-rank world, the way
// a worker's epoch goroutine would, and returns what it returned. A panic in
// dispatch surfaces as the epoch's error (mpi.RankPanicError).
func dispatchOnce(t *testing.T, st *rankStore, op string, common, mine []byte) ([]byte, error) {
	t.Helper()
	world := mpi.NewWorld(1, mpi.Config{ComputeSlots: 1})
	defer world.Close()
	results, err := world.Run(func(c *mpi.Comm) (any, error) { return st.dispatch(c, op, common, mine) })
	if err != nil {
		return nil, err
	}
	out, _ := results[0].([]byte)
	return out, nil
}

// builtStore returns a one-rank store holding a small prepared graph.
func builtStore(t *testing.T) *rankStore {
	t.Helper()
	g, err := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	st := newRankStore(nil)
	build := &wireBuild{graph: g}
	common, perRank, _ := ops[opBuild].encode(build, 1)
	if _, err := dispatchOnce(t, st, opBuild, common, perRank[0]); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDispatchRejectsUnknownOp: a name outside the table is a typed error and
// touches nothing.
func TestDispatchRejectsUnknownOp(t *testing.T) {
	st := builtStore(t)
	before, _ := st.get(0)
	if _, err := dispatchOnce(t, st, "drop_everything", nil, nil); !errors.Is(err, errUnknownOp) {
		t.Fatalf("unknown op: err=%v, want errUnknownOp", err)
	}
	if after, _ := st.get(0); after != before {
		t.Fatal("unknown op replaced the resident state")
	}
}

// opArgs is the wire form of one op's args: common, broadcast to every
// rank, and mine, one rank's payload.
type opArgs struct {
	op           string
	common, mine []byte
}

// undecodableArgs lists, for every op that takes args, wire args that do not
// decode into its arg type.
func undecodableArgs() []opArgs {
	garbage := []byte{0xff, 0x00, 0x13, 0x37, 0xff, 0xff, 0xff, 0xff, 0x7f}
	okBuild, _, _ := ops[opBuild].encode(&wireBuild{RMAT: &wireRMAT{}}, 1)
	graphBuild, _, _ := ops[opBuild].encode(&wireBuild{}, 1)
	return []opArgs{
		{opBuild, garbage, nil},
		{opBuild, nil, nil},
		{opBuild, okBuild, garbage}, // the args decode, the shipped graph does not
		// The shipped graphs decode, but their arrays do not fit together.
		{opBuild, graphBuild, gobEncode(&Graph{N: 3, Xadj: []int64{0, 5, 5, 5}, Adj: []int32{1}})},
		{opBuild, graphBuild, gobEncode(&Graph{N: -1})},
		{opCount, garbage, nil},
		{opApply, garbage, nil},
		{opApply, []byte{2, 0, 0, 0, 1}, nil}, // claims two updates, carries a fragment
		{opRebuildFull, garbage, nil},
		{opEncodeSnap, garbage, nil},
		{opRestore, garbage, gobEncode([][]byte{[]byte("blob")})},
		{opRestore, gobEncode(&wireRestore{}), garbage}, // the args decode, the shipped chain does not
		{opRestore, gobEncode(&wireRestore{}), nil},
	}
}

// TestDispatchRejectsUndecodableArgs: for every op that takes args, bytes
// that do not decode into its arg type are a typed error — never a panic,
// and the op body never runs (the resident state is the same value, with the
// same edge count, afterwards).
func TestDispatchRejectsUndecodableArgs(t *testing.T) {
	st := builtStore(t)
	before, _ := st.get(0)
	m := before.M()
	for _, tc := range undecodableArgs() {
		if _, err := dispatchOnce(t, st, tc.op, tc.common, tc.mine); !errors.Is(err, errBadOpArgs) {
			t.Errorf("%s with common=%x mine=%x: err=%v, want errBadOpArgs", tc.op, tc.common, tc.mine, err)
		}
	}
	if after, _ := st.get(0); after != before || after.M() != m {
		t.Fatal("an op with undecodable args reached the resident state")
	}
}

// TestDispatchRejectsRankWithoutState: every op that needs resident state,
// addressed to a rank that holds none (a worker that joined after the build
// and awaits its restore), is a typed error.
func TestDispatchRejectsRankWithoutState(t *testing.T) {
	enc := func(op string, args any) []byte {
		common, _, err := ops[op].encode(args, 1)
		if err != nil {
			t.Fatal(err)
		}
		return common
	}
	cases := []struct {
		op     string
		common []byte
	}{
		{opCount, nil},
		{opApply, encodeBatch([]EdgeUpdate{{U: 0, V: 1, Op: UpdateInsert}})},
		{opRebuildInc, nil},
		{opRebuildFull, enc(opRebuildFull, &wireBuild{})},
		{opEncodeSnap, enc(opEncodeSnap, &wireSnap{})},
	}
	for _, tc := range cases {
		st := newRankStore(nil)
		if _, err := dispatchOnce(t, st, tc.op, tc.common, []byte("blob")); !errors.Is(err, errNoResident) {
			t.Errorf("%s on an empty store: err=%v, want errNoResident", tc.op, err)
		}
	}
}

// FuzzOpArgs feeds the same bytes, as the common args and as rank 0's
// payload, to the decoder of every entry of the op table: each returns a
// typed error (errBadOpArgs) or args that its own encoder accepts and that
// survive a second trip through the wire form unchanged — never a panic.
// Seeded with the undecodable args of TestDispatchRejectsUndecodableArgs and
// the wire form of well-formed args of every op.
func FuzzOpArgs(f *testing.F) {
	for _, tc := range undecodableArgs() {
		f.Add(tc.common, tc.mine)
	}
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		f.Fatal(err)
	}
	blobs := [][]byte{[]byte("base"), nil, []byte("delta")}
	for _, w := range []struct {
		op   string
		args any
	}{
		{opBuild, &wireBuild{Track: true, RMAT: &wireRMAT{Params: G500, Scale: 4, EdgeFactor: 2, Seed: 1}}},
		{opBuild, &wireBuild{graph: g}},
		{opApply, []delta.Update{{U: 1, V: 2}, {U: 3, Op: delta.OpAddVertices}}},
		{opRebuildFull, &wireBuild{Track: true}},
		{opEncodeSnap, &wireSnap{Delta: true}},
		{opRestore, &wireRestore{Track: true, fetch: func(int) ([][]byte, error) { return blobs, nil }}},
	} {
		common, perRank, err := ops[w.op].encode(w.args, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(common, perRank[0])
	}
	// wire encodes args for one rank, as a coordinator of one would.
	wire := func(op epochOp, args any) (common, mine []byte) {
		common, perRank, err := op.encode(args, 1)
		if err != nil {
			f.Fatalf("encoding decoded args: %v", err)
		}
		return common, perRank[0]
	}
	f.Fuzz(func(t *testing.T, common, mine []byte) {
		for name := range ops {
			op, args, err := decodeArgs(name, common, mine)
			if err != nil {
				if !errors.Is(err, errBadOpArgs) {
					t.Fatalf("%s: untyped error %v", name, err)
				}
				continue
			}
			c1, m1 := wire(op, args)
			_, again, err := decodeArgs(name, c1, m1)
			if err != nil {
				t.Fatalf("%s: decoded args do not decode once encoded: %v", name, err)
			}
			if c2, m2 := wire(op, again); !bytes.Equal(c1, c2) || !bytes.Equal(m1, m2) {
				t.Fatalf("%s: decoded args change on a second trip through the wire form", name)
			}
		}
	})
}
