package mpi

import "fmt"

// Grid views a communicator of qr*qc ranks as a qr × qc Cartesian process
// grid with rank = row*qc + col. It carries both ways the 2D algorithm moves
// its operand blocks: the cyclic row/column shifts of Cannon's algorithm and
// the binomial row/column broadcasts of SUMMA, the pattern the paper's
// conclusion proposes for non-square processor counts.
type Grid struct {
	c      *Comm
	qr, qc int
	row    int
	col    int
}

// Tags for grid shifts and broadcasts; kept inside the collective tag block.
const (
	tagRowShift = collTagBase + 100 + iota
	tagColShift
)

const (
	tagRowBcast = collTagBase + 200 + iota
	tagColBcast
)

// SquareSide returns q if p == q*q, else -1.
func SquareSide(p int) int {
	q := 0
	for q*q < p {
		q++
	}
	if q*q != p {
		return -1
	}
	return q
}

// FactorGrid returns the most square qr × qc factorization of p with
// qr <= qc (1 × p for primes, q × q for a perfect square).
func FactorGrid(p int) (qr, qc int) {
	qr = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			qr = d
		}
	}
	return qr, p / qr
}

// NewGrid wraps c in a qr × qc grid view; qr*qc must equal the world size.
func NewGrid(c *Comm, qr, qc int) (*Grid, error) {
	if qr <= 0 || qc <= 0 || qr*qc != c.Size() {
		return nil, fmt.Errorf("mpi: %dx%d grid does not tile %d ranks", qr, qc, c.Size())
	}
	return &Grid{c: c, qr: qr, qc: qc, row: c.Rank() / qc, col: c.Rank() % qc}, nil
}

// Rows returns qr.
func (g *Grid) Rows() int { return g.qr }

// Cols returns qc.
func (g *Grid) Cols() int { return g.qc }

// Row returns this rank's grid row.
func (g *Grid) Row() int { return g.row }

// Col returns this rank's grid column.
func (g *Grid) Col() int { return g.col }

// RankAt returns the world rank at grid position (row, col), wrapping both
// coordinates cyclically.
func (g *Grid) RankAt(row, col int) int {
	return ((row%g.qr+g.qr)%g.qr)*g.qc + (col%g.qc+g.qc)%g.qc
}

// The four movers below — the shifts and the broadcasts — pass payloads on
// without copying. A payload is shared: from the call on, the ranks it
// reaches may hold the very bytes the caller passed (a socket transport
// writes them out before the send returns), so neither the caller nor any
// receiver may write to them until the epoch ends. A read epoch ships its
// resident blocks this way.

// ShiftRowLeft sends data dist positions left within this grid row (cyclic)
// and returns the block arriving from dist positions right. dist may be any
// non-negative value; dist % qc == 0 is a no-op returning data unchanged.
// data is shared and read-only until the epoch ends.
func (g *Grid) ShiftRowLeft(data []byte, dist int) []byte {
	d := dist % g.qc
	if d == 0 {
		return data
	}
	dst := g.RankAt(g.row, g.col-d)
	src := g.RankAt(g.row, g.col+d)
	g.c.SendOwn(dst, tagRowShift, data)
	return g.c.Recv(src, tagRowShift)
}

// ShiftColUp sends data dist positions up within this grid column (cyclic)
// and returns the block arriving from dist positions below. data is shared
// and read-only until the epoch ends.
func (g *Grid) ShiftColUp(data []byte, dist int) []byte {
	d := dist % g.qr
	if d == 0 {
		return data
	}
	dst := g.RankAt(g.row-d, g.col)
	src := g.RankAt(g.row+d, g.col)
	g.c.SendOwn(dst, tagColShift, data)
	return g.c.Recv(src, tagColShift)
}

// bcastLine broadcasts data from member rootIdx to the n ranks first,
// first+stride, … of one grid line along a binomial tree over member
// indices. Each participant calls it with its own index; the root passes
// data, others receive it. Every member forwards the payload it holds to its
// children as is: it is shared, so one buffer serves the whole tree.
func (g *Grid) bcastLine(first, stride, n, myIdx, rootIdx, tag int, data []byte) []byte {
	if n == 1 {
		return data
	}
	member := func(rel int) int { return first + (rel+rootIdx)%n*stride }
	rel := (myIdx - rootIdx + n) % n
	if rel != 0 {
		data = g.c.Recv(member(parentOf(rel)), tag)
	}
	for _, child := range childrenOf(rel, n) {
		g.c.SendOwn(member(child), tag, data)
	}
	return data
}

// BcastRow broadcasts data from the rank at column rootCol within this
// rank's grid row. The root passes the payload; everyone receives it. data
// is shared and read-only until the epoch ends.
func (g *Grid) BcastRow(rootCol int, data []byte) []byte {
	return g.bcastLine(g.row*g.qc, 1, g.qc, g.col, rootCol, tagRowBcast, data)
}

// BcastCol broadcasts data from the rank at row rootRow within this rank's
// grid column. data is shared and read-only until the epoch ends.
func (g *Grid) BcastCol(rootRow int, data []byte) []byte {
	return g.bcastLine(g.col, g.qc, g.qr, g.row, rootRow, tagColBcast, data)
}
