// Quickstart: build a small graph, count its triangles with the 2D
// distributed algorithm on a 2×2 rank grid, and cross-check against the
// sequential reference.
package main

import (
	"fmt"
	"log"

	"tc2d"
)

func main() {
	// The complete graph K5 minus one edge: C(5,3)=10 triangles in K5,
	// removing edge (3,4) kills the 3 triangles that used it.
	edges := []tc2d.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4},
		{U: 2, V: 3}, {U: 2, V: 4},
	}
	g, err := tc2d.NewGraph(5, edges)
	if err != nil {
		log.Fatal(err)
	}

	res, err := tc2d.Count(g, tc2d.Options{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph: %d vertices, %d edges\n", res.N, res.M)
	fmt.Printf("triangles (distributed, 4 ranks): %d\n", res.Triangles)
	fmt.Printf("triangles (sequential check):     %d\n", tc2d.CountSequential(g))
	fmt.Printf("preprocessing %.3gs + counting %.3gs under the network cost model\n",
		res.PreprocessTime, res.CountTime)
	fmt.Printf("kernel: %d intersections, %d probes\n", res.MapTasks, res.Probes)
}
