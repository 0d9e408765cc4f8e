package core

import (
	"regexp"
	"strings"
	"testing"

	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// TestCountRejectsBadOperand: an operand blob that does not decode for the
// receiving rank — of the wrong kind, or of a length its header does not
// announce — fails the count's epoch with an error naming the rank, the step
// and the operand instead of panicking, and the world counts correctly in
// the next epoch. One rank's resident U block is damaged: it travels as a U
// operand along its grid row and as an L operand up the grid column of its
// transposed rank.
func TestCountRejectsBadOperand(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 4)
	want := seqtc.Count(g)
	w := mpi.NewWorld(4, testCfg())
	defer w.Close()
	preps := make([]*Prepared, 4)
	if _, err := w.Run(func(c *mpi.Comm) (any, error) {
		var err error
		preps[c.Rank()], err = prepareOn(c, g, 0, 0, EnumJIK)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	count := func() (int64, error) {
		res, err := w.RunRead(func(c *mpi.Comm) (any, error) {
			r, err := CountPrepared(c, preps[c.Rank()], Options{})
			if err != nil {
				return nil, err
			}
			return r.Triangles, nil
		})
		if err != nil {
			return 0, err
		}
		return res[0].(int64), nil
	}
	named := regexp.MustCompile(`core: rank \d step \d: [UL] operand: `)
	for _, tc := range []struct {
		name string
		word int   // header word of rank 1's U block to damage
		add  int32 // added to it
		want string
	}{
		{"wrong kind", 1, kindL, "of kind 1, want 0"},
		{"wrong length", 3, 1, "its header says"},
	} {
		buf := preps[1].blk.u[0].buf
		buf[tc.word] += tc.add
		_, err := count()
		buf[tc.word] -= tc.add
		if err == nil || !named.MatchString(err.Error()) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: count error %v, want one naming the rank, step and operand and containing %q", tc.name, err, tc.want)
		}
		if got, err := count(); err != nil || got != want {
			t.Errorf("%s: the next count gives %d, %v; the oracle counts %d", tc.name, got, err, want)
		}
	}
}
