// LCLS: the Mixed Sparse Pattern (MSP) use case — the paper motivates
// MSP with the Linac Coherent Light Source (LCLS-II) experiment, whose
// detector frames contain "a dense area among the random sparse
// points" (§III). This example models a run of detector frames as a 4D
// tensor (frame x panel x y x x): each frame has background noise plus
// a bright diffraction blob, written frame-by-frame (one fragment per
// frame, the streaming ingest of a beamline), then analyzed with a
// dense-region read centered on the blob.
//
// It compares LINEAR (the paper's best-balance organization) against
// CSF on exactly the trade-off Table IV aggregates: ingest time, file
// size, and region-read time.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sparseart"
)

const (
	frames = 8
	panels = 4
	side   = 128 // panel resolution: side x side
)

// frame synthesizes one detector frame: Bernoulli background noise and
// a dense blob whose center drifts with the frame number.
func frame(f uint64) (*sparseart.Coords, []float64) {
	coords := sparseart.NewCoords(4, 0)
	var photons []float64
	seed := 0xC0FFEE ^ (f+1)*0x9E3779B97F4A7C15
	next := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for p := uint64(0); p < panels; p++ {
		// Background: ~0.1% of pixels see stray photons.
		n := side * side / 1000
		for i := 0; i < n; i++ {
			coords.Append(f, p, next()%side, next()%side)
			photons = append(photons, float64(1+next()%10))
		}
		// The diffraction blob: a dense 12x12 region that drifts.
		cy, cx := uint64(side/2+2*f), uint64(side/2+f)
		for y := cy; y < cy+12; y++ {
			for x := cx; x < cx+12; x++ {
				coords.Append(f, p, y, x)
				photons = append(photons, float64(100+next()%900))
			}
		}
	}
	return coords, photons
}

func main() {
	shape := sparseart.Shape{frames, panels, side, side}
	fmt.Printf("LCLS-style detector run: %d frames x %d panels x %dx%d pixels\n\n", frames, panels, side, side)

	for _, kind := range []sparseart.Kind{sparseart.LINEAR, sparseart.CSF} {
		fs := sparseart.NewPerlmutterSim()
		st, err := sparseart.CreateStoreOn(fs, "run-042/"+kind.String(), kind, shape)
		if err != nil {
			log.Fatal(err)
		}

		var ingest time.Duration
		points := 0
		for f := uint64(0); f < frames; f++ {
			coords, photons := frame(f)
			rep, err := st.Write(coords, photons)
			if err != nil {
				log.Fatal(err)
			}
			ingest += rep.Sum()
			points += coords.Len()
		}

		// Analysis pass: integrate the photon counts in a window around
		// the blob track, across all frames and panels.
		region, err := sparseart.NewRegion(shape,
			[]uint64{0, 0, side / 2, side / 2},
			[]uint64{frames, panels, 28, 20})
		if err != nil {
			log.Fatal(err)
		}
		res, rrep, err := st.Query(context.Background(), sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest})
		if err != nil {
			log.Fatal(err)
		}
		var integrated float64
		for _, v := range res.Values {
			integrated += v
		}

		fmt.Printf("%v:\n", kind)
		fmt.Printf("  ingest:    %d points in %.2f ms (%d fragments)\n", points, ingest.Seconds()*1e3, st.Fragments())
		fmt.Printf("  file size: %d bytes\n", st.TotalBytes())
		fmt.Printf("  analysis:  %d pixels, %.0f photons, read %.2f ms (probe %.2f ms)\n\n",
			res.Coords.Len(), integrated, rrep.Sum().Seconds()*1e3, rrep.Probe.Seconds()*1e3)
	}

	fmt.Println("LINEAR minimizes the stored index (one word per photon);")
	fmt.Println("CSF deduplicates the shared frame/panel prefixes of the dense blob.")
}
