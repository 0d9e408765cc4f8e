// Command tc counts the triangles of a graph with the 2D distributed
// algorithm.
//
// Usage:
//
//	tc -file graph.txt -ranks 16
//	tc -rmat 16 -ef 16 -params g500 -ranks 6 -check
//
// The input is either a text edge list (-file) or a generated RMAT instance
// (-rmat scale). Any positive rank count runs: a perfect square uses Cannon
// shifts on a √p × √p grid, any other count SUMMA broadcasts on the most
// square grid. The tool prints the triangle count, the phase times under
// the communication cost model, and the kernel instrumentation; -check
// exits non-zero when the count differs from the sequential counter.
package main

import (
	"flag"
	"fmt"
	"os"

	"tc2d"
)

func main() {
	var (
		file   = flag.String("file", "", "text edge list to read ('#'/'%' comments allowed)")
		scale  = flag.Int("rmat", 0, "generate an RMAT graph with 2^scale vertices instead of reading a file")
		ef     = flag.Int("ef", 16, "RMAT edge factor")
		params = flag.String("params", "g500", "RMAT parameter preset: g500, twitterish, friendsterish")
		seed   = flag.Uint64("seed", 1, "generator seed")
		ranks  = flag.Int("ranks", 1, "number of SPMD ranks (square = Cannon, otherwise SUMMA)")
		seq    = flag.Bool("check", false, "cross-check against the sequential counter")
	)
	flag.Parse()

	opt := tc2d.Options{Ranks: *ranks}

	var g *tc2d.Graph
	var res *tc2d.Result
	var err error
	switch {
	case *file != "":
		f, ferr := os.Open(*file)
		if ferr != nil {
			fatalf("%v", ferr)
		}
		g, err = tc2d.ReadEdgeList(f, 0)
		f.Close()
		if err != nil {
			fatalf("reading %s: %v", *file, err)
		}
		res, err = tc2d.Count(g, opt)
		if err != nil {
			fatalf("%v", err)
		}
	case *scale > 0:
		p, perr := preset(*params)
		if perr != nil {
			fatalf("%v", perr)
		}
		res, err = tc2d.CountRMAT(p, *scale, *ef, *seed, opt)
		if err != nil {
			fatalf("%v", err)
		}
		if *seq {
			g, err = tc2d.GenerateRMAT(p, *scale, *ef, *seed)
			if err != nil {
				fatalf("%v", err)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "tc: need -file or -rmat; see -help")
		os.Exit(2)
	}

	fmt.Printf("vertices:   %d\n", res.N)
	fmt.Printf("edges:      %d\n", res.M)
	fmt.Printf("triangles:  %d\n", res.Triangles)
	fmt.Printf("ranks:      %d\n", *ranks)
	fmt.Printf("ppt:        %.6fs (comm %.1f%%)\n", res.PreprocessTime, 100*res.CommFracPre)
	fmt.Printf("tct:        %.6fs (comm %.1f%%)\n", res.CountTime, 100*res.CommFracCount)
	fmt.Printf("overall:    %.6fs\n", res.TotalTime)
	fmt.Printf("probes:     %d\n", res.Probes)
	fmt.Printf("map tasks:  %d\n", res.MapTasks)
	if *seq && g != nil {
		want := tc2d.CountSequential(g)
		if want == res.Triangles {
			fmt.Printf("check:      OK (sequential agrees: %d)\n", want)
		} else {
			fatalf("check FAILED: sequential %d, distributed %d", want, res.Triangles)
		}
	}
}

func preset(name string) (tc2d.RMATParams, error) {
	switch name {
	case "g500":
		return tc2d.G500, nil
	case "twitterish":
		return tc2d.Twitterish, nil
	case "friendsterish":
		return tc2d.Friendsterish, nil
	}
	return tc2d.RMATParams{}, fmt.Errorf("unknown params preset %q", name)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tc: "+format+"\n", args...)
	os.Exit(1)
}
