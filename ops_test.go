package tc2d

import (
	"errors"
	"testing"

	"tc2d/internal/mpi"
)

// dispatchOnce runs one dispatch call as rank 0 of a one-rank world, the way
// a worker's epoch goroutine would, and returns what it returned. A panic in
// dispatch surfaces as the epoch's error (mpi.RankPanicError).
func dispatchOnce(t *testing.T, st *rankStore, op string, common, mine []byte) ([]byte, error) {
	t.Helper()
	world := mpi.NewWorld(1, mpi.Config{Model: mpi.ZeroCostModel(), ComputeSlots: 1})
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

// TestDispatchRejectsUndecodableArgs: for every op that takes args, bytes
// that do not decode into its arg type are a typed error — never a panic,
// and the op body never runs (the resident state is the same value, with the
// same edge count, afterwards).
func TestDispatchRejectsUndecodableArgs(t *testing.T) {
	garbage := []byte{0xff, 0x00, 0x13, 0x37, 0xff, 0xff, 0xff, 0xff, 0x7f}
	okBuild, _, _ := ops[opBuild].encode(&wireBuild{RMAT: &wireRMAT{}}, 1)
	cases := []struct {
		op           string
		common, mine []byte
	}{
		{opBuild, garbage, nil},
		{opBuild, nil, nil},
		{opBuild, okBuild, garbage}, // the args decode, the shipped graph does not
		{opCount, garbage, nil},
		{opApply, garbage, nil},
		{opApply, []byte{2, 0, 0, 0, 1}, nil}, // claims two updates, carries a fragment
		{opRebuildFull, garbage, nil},
		{opEncodeSnap, garbage, nil},
		{opRestore, garbage, gobEncode([][]byte{[]byte("blob")})},
		{opRestore, gobEncode(&wireRestore{}), garbage}, // the args decode, the shipped chain does not
		{opRestore, gobEncode(&wireRestore{}), nil},
	}
	st := builtStore(t)
	before, _ := st.get(0)
	m := before.M()
	for _, tc := range cases {
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
