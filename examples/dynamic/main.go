// Dynamic cluster demo: a resident distributed graph serving an
// append-heavy stream of edge mutations — the social-network write
// workload — while four concurrent readers query it. The cluster is built
// once; every batch of follows/unfollows is applied with delta counting
// (only triangles incident to batch edges are touched), so the maintained
// triangle count, edge count and transitivity stay exact without ever
// re-running the preprocessing pipeline. The vertex space is elastic:
// brand-new users sign up mid-stream (their ids grow the graph with no
// rebuild — they land in an overflow region the next rebuild folds away)
// and deactivated accounts are removed with all their follow edges in one
// op. When enough updates or overflow accumulate, the staleness threshold
// triggers an automatic in-world rebuild that refreshes the degree
// ordering — and the stream keeps flowing through the composed label map.
//
// The readers never wait on each other: the epoch scheduler admits their
// queries as concurrent read epochs (identical concurrent queries share
// one epoch's result), while the writer's batches coalesce into exclusive
// write epochs. The closing stats show both coalescing factors.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tc2d"
)

func main() {
	const ranks = 9
	const scale, ef = 11, 8
	const readers = 4

	g, err := tc2d.GenerateRMAT(tc2d.G500, scale, ef, 2026)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	cluster, err := tc2d.NewCluster(g, tc2d.Options{Ranks: ranks})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	info := cluster.Info()
	fmt.Printf("resident cluster up in %v: n=%d m=%d on %d ranks\n",
		time.Since(t0).Round(time.Millisecond), info.N, info.M, info.Ranks)

	res, err := cluster.Count(tc2d.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d triangles\n\n", res.Triangles)

	// Four concurrent readers poll the maintained counts while the
	// mutation stream runs; their queries interleave with the write epochs
	// under the scheduler, never serializing behind a write that has not
	// drained yet.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex // interleaved printing only
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := 0
			var last int64 = -1
			for !stop.Load() {
				res, err := cluster.Count(tc2d.QueryOptions{})
				if err != nil {
					log.Fatal(err)
				}
				queries++
				if res.Triangles != last {
					last = res.Triangles
					mu.Lock()
					fmt.Printf("  reader %d: query %d sees %d triangles\n", r, queries, last)
					mu.Unlock()
				}
			}
			mu.Lock()
			fmt.Printf("  reader %d done: %d queries\n", r, queries)
			mu.Unlock()
		}(r)
	}

	// Stream mutation batches: mostly new follows, some unfollows sampled
	// from the original graph, plus the duplicates and replays a real
	// at-least-once feed delivers (they become skips, not errors). The
	// vertex space is elastic: every batch also signs up a handful of
	// brand-new users (ids beyond the current space — no pre-declaration,
	// the cluster grows to admit them) and deactivates an account or two
	// (RemoveVertices drops the user and every follow edge in one op).
	rng := rand.New(rand.NewSource(7))
	existing := g.Edges()
	curN := int64(g.N)
	for batchNo := 1; batchNo <= 6; batchNo++ {
		var batch []tc2d.EdgeUpdate
		// Unfollows first, so the random follows below can avoid them — a
		// batch that both inserts and deletes one edge is rejected by
		// design (its final state would be ambiguous).
		unfollowed := map[[2]int32]bool{}
		for i := 0; i < 60; i++ {
			e := existing[rng.Intn(len(existing))]
			unfollowed[[2]int32{e.U, e.V}] = true
			batch = append(batch, tc2d.EdgeUpdate{U: e.U, V: e.V, Op: tc2d.UpdateDelete})
		}
		for i := 0; i < 220; i++ {
			u, v := int32(rng.Intn(int(curN))), int32(rng.Intn(int(curN)))
			if u > v {
				u, v = v, u
			}
			if unfollowed[[2]int32{u, v}] {
				continue
			}
			batch = append(batch, tc2d.EdgeUpdate{U: u, V: v, Op: tc2d.UpdateInsert})
		}
		for i := 0; i < 5; i++ { // new users follow a few residents
			newUser := int32(curN) + int32(i)
			for f := 0; f < 2; f++ {
				batch = append(batch, tc2d.EdgeUpdate{U: newUser, V: int32(rng.Intn(int(g.N))), Op: tc2d.UpdateInsert})
			}
		}
		upd, err := cluster.ApplyUpdates(batch)
		if err != nil {
			log.Fatal(err)
		}
		curN = upd.GrownTo
		note := ""
		if upd.Rebuilt {
			note = "  [staleness rebuild ran]"
		}
		mu.Lock()
		fmt.Printf("writer: batch %d: +%d -%d edges, +%d users → n=%d (%d skips), Δtri %+d → %d triangles, m=%d%s\n",
			batchNo, upd.Inserted, upd.Deleted, upd.AddedVertices, upd.GrownTo,
			upd.SkippedExisting+upd.SkippedMissing+upd.SkippedLoops,
			upd.DeltaTriangles, upd.Triangles, upd.M, note)
		mu.Unlock()

		if batchNo%2 == 0 { // an account deactivates: user + all follows, one op
			gone := int32(rng.Intn(int(g.N)))
			upd, err := cluster.RemoveVertices([]int32{gone})
			if err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			fmt.Printf("writer: deactivated user %d: -%d follow edges, Δtri %+d → %d triangles\n",
				gone, upd.Deleted, upd.DeltaTriangles, upd.Triangles)
			mu.Unlock()
		}
	}
	stop.Store(true)
	wg.Wait()

	// The maintained counts must match a full recount over the spliced
	// blocks and the transitivity derived from maintained wedges.
	final, err := cluster.Count(tc2d.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := cluster.Transitivity()
	if err != nil {
		log.Fatal(err)
	}
	info = cluster.Info()
	fmt.Printf("\nfull recount over resident blocks: %d triangles (0 preprocessing ops)\n", final.Triangles)
	fmt.Printf("transitivity %.6f over %d maintained wedges\n", tr, info.Wedges)
	fmt.Printf("vertex space: n=%d (base %d, %.1f%% overflow awaiting the next fold)\n",
		info.N, info.BaseN, 100*info.OverflowFraction)
	fmt.Printf("served %d queries + %d update batches, %d rebuilds, on one resident cluster\n",
		info.Queries, info.Updates, info.Rebuilds)
	readCoal, writeCoal := 1.0, 1.0
	if info.ReadEpochs > 0 {
		readCoal = float64(info.Queries) / float64(info.ReadEpochs)
	}
	if info.WriteEpochs > 0 {
		writeCoal = float64(info.CoalescedBatches) / float64(info.WriteEpochs)
	}
	fmt.Printf("scheduler: %d read epochs served %d queries (%.1fx shared), %d write epochs carried %d batches (%.1fx coalesced)\n",
		info.ReadEpochs, info.Queries, readCoal, info.WriteEpochs, info.CoalescedBatches, writeCoal)
}
