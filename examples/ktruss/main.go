// k-truss decomposition built on triangle counting — one of the paper's
// motivating applications (§1). The k-truss of a graph is the maximal
// subgraph in which every edge participates in at least k-2 triangles.
//
// This example peels a graph to its trussness levels against a resident
// Cluster: the graph is preprocessed into the distributed 2D layout exactly
// once, and every peeling round then removes the under-supported edges as a
// delta batch — the cluster maintains the triangle count incrementally, with
// no re-preprocessing between rounds. Because the (k+1)-truss is contained
// in the k-truss, the levels are peeled progressively on one cluster.
package main

import (
	"fmt"
	"log"
	"time"

	"tc2d"
)

func main() {
	g, err := tc2d.GenerateRMAT(tc2d.G500, 11, 12, 7)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	cl, err := tc2d.NewCluster(g, tc2d.Options{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(start)
	defer cl.Close()
	info := cl.Info()
	res, err := cl.Count(tc2d.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, %d triangles (preprocessed once, %.3gs wall)\n",
		info.N, info.M, res.Triangles, built.Seconds())

	// Sample every 4th level up to k=24 to keep the demo short. cur mirrors
	// the cluster's surviving subgraph; supports are computed on it
	// sequentially to pick the edges each delta batch deletes.
	cur := g
	for k := 4; k <= 24; k += 4 {
		var tri int64
		cur, tri = truss(cl, cur, k)
		if cur == nil || cur.NumEdges() == 0 {
			fmt.Printf("%2d-truss: empty\n", k)
			break
		}
		if want := tc2d.CountSequential(cur); tri != want {
			log.Fatalf("%d-truss: cluster says %d triangles, sequential says %d", k, tri, want)
		}
		fmt.Printf("%2d-truss: %8d edges, %8d triangles (delta-maintained, verified)\n",
			k, cur.NumEdges(), tri)
	}
}

// truss peels cl (mirrored locally by cur) down to its k-truss, returning
// the surviving subgraph and the cluster's incrementally maintained triangle
// count (nil graph if the truss is empty).
func truss(cl *tc2d.Cluster, cur *tc2d.Graph, k int) (*tc2d.Graph, int64) {
	tri := int64(-1)
	for {
		sup := tc2d.EdgeSupport(cur)
		var keep []tc2d.Edge
		var peel []tc2d.EdgeUpdate
		for v := int32(0); v < cur.NumVertices(); v++ {
			for _, u := range cur.Neighbors(v) {
				if u <= v {
					continue
				}
				e := tc2d.Edge{U: v, V: u}
				if int(sup[e]) >= k-2 {
					keep = append(keep, e)
				} else {
					peel = append(peel, tc2d.EdgeUpdate{U: v, V: u, Op: tc2d.UpdateDelete})
				}
			}
		}
		if len(peel) == 0 {
			if tri < 0 { // nothing peeled at this level: ask the cluster
				res, err := cl.Count(tc2d.QueryOptions{})
				if err != nil {
					log.Fatal(err)
				}
				tri = res.Triangles
			}
			return cur, tri
		}
		res, err := cl.ApplyUpdates(peel)
		if err != nil {
			log.Fatal(err)
		}
		tri = res.Triangles
		if len(keep) == 0 {
			return nil, tri
		}
		next, err := tc2d.NewGraph(cur.NumVertices(), keep)
		if err != nil {
			log.Fatal(err)
		}
		cur = next
	}
}
