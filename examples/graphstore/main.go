// Graphstore: the General Graph Sparse Pattern (GSP) use case from the
// paper's §III — adjacency data "used for representing social networks
// or recommendation systems" — as a temporal graph store.
//
// Edges of an evolving graph live in a 3D tensor (time x src x dst),
// written one snapshot per fragment. The example answers two query
// shapes against a GCSR++ store (the organization the paper finds
// strong on this pattern) and contrasts it with the COO baseline:
//
//   - neighborhood query: which of a vertex's outgoing edges existed
//     at each time step (a rectangular region read);
//   - edge-history probes: did edge (u, v) exist at time t (point
//     lookups with a found mask).
package main

import (
	"context"
	"fmt"
	"log"

	"sparseart"
)

const (
	steps    = 16  // time steps
	vertices = 256 // graph size
)

// edgesAt deterministically synthesizes the edge set of one snapshot: a
// preferential-attachment-flavored random graph that densifies near low
// vertex ids, plus a slowly rotating ring so the graph changes over
// time.
func edgesAt(t uint64) (*sparseart.Coords, []float64) {
	coords := sparseart.NewCoords(3, 0)
	var weights []float64
	seed := uint64(0x9E3779B97F4A7C15) * (t + 1)
	next := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	// Hub edges: low ids attract many edges.
	for i := 0; i < 6*vertices; i++ {
		src := next() % vertices
		dst := next() % (1 + next()%vertices) // biased toward low ids
		if src == dst {
			continue
		}
		coords.Append(t, src, dst)
		weights = append(weights, 1+float64(next()%100)/100)
	}
	// Ring edges that rotate with t.
	for v := uint64(0); v < vertices; v++ {
		coords.Append(t, v, (v+1+t)%vertices)
		weights = append(weights, 0.5)
	}
	return coords, weights
}

func main() {
	shape := sparseart.Shape{steps, vertices, vertices}
	fs := sparseart.NewPerlmutterSim()

	for _, kind := range []sparseart.Kind{sparseart.GCSR, sparseart.COO} {
		st, err := sparseart.CreateStoreOn(fs, "graph/"+kind.String(), kind, shape)
		if err != nil {
			log.Fatal(err)
		}

		// One fragment per snapshot: the natural append-only ingest of
		// a temporal graph, exercising multi-fragment reads.
		total := 0
		for t := uint64(0); t < steps; t++ {
			coords, weights := edgesAt(t)
			if _, err := st.Write(coords, weights); err != nil {
				log.Fatal(err)
			}
			total += coords.Len()
		}
		fmt.Printf("%v store: %d edge records in %d fragments, %d bytes\n",
			kind, total, st.Fragments(), st.TotalBytes())

		// Neighborhood query: all outgoing edges of vertices [0, 8)
		// across every time step.
		region, err := sparseart.NewRegion(shape, []uint64{0, 0, 0}, []uint64{steps, 8, vertices})
		if err != nil {
			log.Fatal(err)
		}
		res, rep, err := st.Query(context.Background(), sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  neighborhood of hub vertices: %d edges in %.2f ms (probe %.2f ms over %d fragments)\n",
			res.Coords.Len(), rep.Sum().Seconds()*1e3, rep.Probe.Seconds()*1e3, rep.Fragments)

		// Edge-history probes: did the rotating ring edge from vertex
		// 10 exist at each step?
		probe := sparseart.NewCoords(3, steps)
		for t := uint64(0); t < steps; t++ {
			probe.Append(t, 10, (10+1+t)%vertices)
		}
		history, _, err := st.Query(context.Background(), sparseart.QueryRequest{Probe: probe, AsOf: sparseart.AsOfLatest})
		if err != nil {
			log.Fatal(err)
		}
		_, found := sparseart.AlignPoints(probe, history)
		hits := 0
		for _, ok := range found {
			if ok {
				hits++
			}
		}
		fmt.Printf("  ring-edge history: %d/%d probes found (expected %d)\n\n", hits, steps, steps)
	}

	stats := fs.Stats()
	fmt.Printf("simulated Lustre traffic: %d writes (%d bytes), %d reads (%d bytes)\n",
		stats.WriteOps, stats.BytesWritten, stats.ReadOps, stats.BytesRead)
}
