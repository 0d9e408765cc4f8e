package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a text edge list: a header comment with
// counts, then one "u v" line per undirected edge (u < v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# vertices %d edges %d\n", g.N, g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); v < g.N; v++ {
		for _, u := range g.NeighborsAbove(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list: whitespace-separated vertex pairs,
// one per line; lines starting with '#' or '%' are comments. Vertex ids are
// arbitrary non-negative integers; the vertex count is max id + 1 unless a
// larger n is given (pass n <= 0 to infer).
func ReadEdgeList(r io.Reader, n int32) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int32(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected two vertex ids, got %q", line, text)
		}
		u64, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v64, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		u, v := int32(u64), int32(v64)
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", line)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		if maxID == math.MaxInt32 {
			return nil, fmt.Errorf("graph: vertex id %d needs a vertex count above the int32 limit %d", maxID, math.MaxInt32)
		}
		n = maxID + 1
	} else if maxID >= n {
		return nil, fmt.Errorf("graph: edge references vertex %d >= n=%d", maxID, n)
	}
	return FromEdges(n, edges)
}
