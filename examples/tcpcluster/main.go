// TCP cluster demo: builds a resident distributed cluster whose ranks live
// in worker processes and exchange every message over real loopback TCP
// sockets (length-prefixed binary frames, one full-duplex connection per
// rank pair), then serves many queries from it. The coordinator hosts no
// ranks; two workers — started here in-process with RunWorker, exactly what
// the tcworker command runs — claim them. Every rank generates its own
// slice of the RMAT edge stream, the graph is preprocessed into the 2D
// block distribution exactly once, and each query — counts, transitivity —
// is one SPMD epoch against the resident blocks, demonstrating both the
// wire discipline a multi-machine deployment needs and the build-once /
// query-many execution model a query-serving service needs.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tc2d"
)

func main() {
	const ranks = 9
	const scale, ef = 12, 16
	spans := []int{5, 4} // ranks hosted by each worker

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exits := make(chan error, len(spans))
	startWorkers := func(addr string) {
		for _, span := range spans {
			go func(span int) {
				exits <- tc2d.RunWorker(ctx, tc2d.WorkerOptions{Coordinator: addr, Ranks: span})
			}(span)
		}
	}

	t0 := time.Now()
	cluster, err := tc2d.NewClusterCoordinatorRMAT(tc2d.G500, scale, ef, 77,
		tc2d.Options{Ranks: ranks}, tc2d.CoordinatorOptions{OnListen: startWorkers})
	if err != nil {
		log.Fatal(err)
	}

	info := cluster.Info()
	fmt.Printf("TCP cluster up in %v: %d ranks on %d workers, %d loopback connections\n",
		time.Since(t0).Round(time.Millisecond), info.Ranks, info.Workers, ranks*(ranks-1)/2)
	fmt.Printf("resident graph: %d vertices, %d edges (preprocessed once, %d ops)\n",
		info.N, info.M, info.PreOps)

	// Query 1: the paper's fully optimized count.
	res, err := cluster.Count(tc2d.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles over TCP: %d (query re-did %d preprocessing ops)\n",
		res.Triangles, res.PreOps)

	// Query 2: the same count again, against the same resident blocks.
	again, err := cluster.Count(tc2d.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second query agrees: %d (probes %d vs %d)\n",
		again.Triangles, again.Probes, res.Probes)

	// Query 3: transitivity from the resident wedge count.
	tr, err := cluster.Transitivity()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transitivity: %.6f over %d wedges\n", tr, info.Wedges)
	queries := cluster.Info().Queries

	// Closing the coordinator releases the workers.
	if err := cluster.Close(); err != nil {
		log.Fatal(err)
	}
	for range spans {
		if err := <-exits; err != nil {
			log.Printf("worker: %v", err)
		}
	}

	// Cross-check against the in-memory sequential counter.
	g, err := tc2d.GenerateRMAT(tc2d.G500, scale, ef, 77)
	if err != nil {
		log.Fatal(err)
	}
	want := tc2d.CountSequential(g)
	if want != res.Triangles || want != again.Triangles {
		log.Fatalf("mismatch: sequential %d, TCP cluster %d/%d", want, res.Triangles, again.Triangles)
	}
	fmt.Printf("sequential check: OK (%d); served %d queries from one resident cluster\n",
		want, queries)
}
