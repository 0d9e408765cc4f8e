package core

// The broadcast (SUMMA) schedule — CountGrid and PrepareGrid with bcast —
// is the rectangular-grid extension the paper's conclusion proposes: the
// same 2D cyclic task decomposition, scheduled with SUMMA's broadcast
// pattern instead of Cannon's shifts, so the processor count only needs to
// factor as qr × qc rather than being a perfect square (any p works; primes
// degenerate to 1 × p).
//
// The inner dimension k is processed in lcm(qr, qc) residue classes. At
// step t, the rank in grid column t mod qc owning the U entries with
// k ≡ t broadcasts that class along its grid row, the rank in grid row
// t mod qr owning the matching L entries broadcasts along its column, and
// every rank runs the kernel over its task block. Classes store k div lcm as
// the intersection key, so both operands agree on local indices without
// further translation.

func lcm(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// splitClasses splits a block into s blocks of its kind and row dimension: a
// value v lands in block v mod s as v div s, in row order, so sorted rows
// stay sorted. Count, then fill; s == 1 returns the block itself.
func splitClasses(b csrBlock, s int32) []csrBlock {
	if s == 1 {
		return []csrBlock{b}
	}
	nnz := make([]int, s)
	for _, v := range b.adj {
		nnz[v%s]++
	}
	out := make([]csrBlock, s)
	for cls := range out {
		out[cls] = newBlock(b.kind(), b.rows, nnz[cls], 0)
	}
	for a := int32(0); a < b.rows; a++ {
		for _, v := range b.row(a) {
			out[v%s].xadj[a+1]++
		}
	}
	for cls := range out {
		prefixSum(out[cls].xadj)
	}
	// Rows are visited in order, so each block's write position simply
	// runs on from row to row.
	fill := make([]int32, s)
	for _, v := range b.adj {
		out[v%s].adj[fill[v%s]] = v / s
		fill[v%s]++
	}
	return out
}
