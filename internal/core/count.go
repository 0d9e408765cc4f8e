package core

import (
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// CountGrid runs the full distributed triangle counting pipeline on the
// calling rank's share of the 1D-distributed input graph, on a qr × qc
// process grid with the shift (bcast false; square grids only) or the
// broadcast schedule. Every rank of the communicator must call it with its
// own input share and identical arguments. The returned Result carries the
// global triangle count and the phase/instrumentation data the paper's
// experiments report.
//
// It is a thin composition of the build-once / query-many layers: one
// PrepareGrid (preprocessing) followed by one CountPrepared (counting). It is
// also the one place opt.Enumeration is read: its state, built for that
// rule, serves this count and is dropped, so an ⟨i,j,k⟩ state never leaves
// it (§7.3's ablation compares the rules). It is
// also the one place the phases are fenced by barriers and timed on the
// virtual clock, so its Result is the only one that carries modeled times.
// Callers that issue many queries against the same graph should prepare once
// and call CountPrepared per query instead.
func CountGrid(c *mpi.Comm, in *dgraph.Dist1D, qr, qc int, bcast bool, opt Options) (*Result, error) {
	c.Barrier()
	t0, s0 := c.Time(), c.Stats()
	prep, err := prepareGrid(c, in, qr, qc, bcast, opt.Enumeration)
	if err != nil {
		return nil, err
	}
	c.Barrier()
	t1, s1 := c.Time(), c.Stats()
	res, err := CountPrepared(c, prep, opt)
	if err != nil {
		return nil, err
	}
	c.Barrier()
	t2, s2 := c.Time(), c.Stats()

	fracs := c.AllreduceFloat64s([]float64{commFrac(t0, t1, s0, s1), commFrac(t1, t2, s1, s2)}, mpi.OpSum)
	res.PreOps = prep.preOps
	res.PreprocessTime, res.CountTime = t1-t0, t2-t1
	res.TotalTime = res.PreprocessTime + res.CountTime
	res.CommFracPre = fracs[0] / float64(c.Size())
	res.CommFracCount = fracs[1] / float64(c.Size())
	return res, nil
}

// commFrac is the share of the virtual interval [ta, tb] this rank spent in
// communication.
func commFrac(ta, tb float64, sa, sb mpi.Stats) float64 {
	if tb <= ta {
		return 0
	}
	return (sb.CommTime - sa.CommTime) / (tb - ta)
}

// Count is CountGrid with Cannon's shift schedule, the paper's algorithm, on
// the most square factorization of the world size (refused unless square,
// as in Prepare).
func Count(c *mpi.Comm, in *dgraph.Dist1D, opt Options) (*Result, error) {
	qr, qc := mpi.FactorGrid(c.Size())
	return CountGrid(c, in, qr, qc, false, opt)
}
