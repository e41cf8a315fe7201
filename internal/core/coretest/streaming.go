package coretest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// RunStreaming checks the one walk every reader serves the READ loop
// through: Each restarts on every call and stops exactly where its
// visitor says, and ScanRegion visits exactly the (point, slot) steps
// Each visits inside the region, in the same order, early stop
// included — whatever levels the region let it prune.
func RunStreaming(t *testing.T, formats []core.Format) {
	rounds, maxPoints := 8, 500
	if testing.Short() {
		rounds, maxPoints = 3, 120
	}
	rng := rand.New(rand.NewSource(4242))
	for round := 0; round < rounds; round++ {
		shape := randomShape(rng)
		c := randomDataset(rng, shape, rng.Intn(maxPoints+1))
		t.Run(fmt.Sprintf("round%02d_%v_n%d", round, shape, c.Len()), func(t *testing.T) {
			streamingRound(t, formats, rng, shape, c)
		})
	}
}

// visitRec is one (point, slot) step of a walk, with the reused point
// slice copied out.
type visitRec struct {
	p    string
	slot int
}

// recordWalk records walk's steps, stopping it after stopAfter of them
// when that is positive.
func recordWalk(walk func(visit func(p []uint64, slot int) bool), stopAfter int) []visitRec {
	var out []visitRec
	walk(func(p []uint64, slot int) bool {
		out = append(out, visitRec{fmt.Sprint(p), slot})
		return stopAfter <= 0 || len(out) < stopAfter
	})
	return out
}

func sameWalk(t *testing.T, kind core.Kind, label string, got, want []visitRec) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%v: %s walked %d steps %+v, want %d steps %+v", kind, label, len(got), got, len(want), want)
	}
}

// randomRegion draws a region inside shape, degenerate 1-cell ones
// included.
func randomRegion(rng *rand.Rand, shape tensor.Shape) tensor.Region {
	start, size := make([]uint64, shape.Dims()), make([]uint64, shape.Dims())
	for d := range shape {
		start[d] = uint64(rng.Int63n(int64(shape[d])))
		size[d] = 1 + uint64(rng.Int63n(int64(shape[d]-start[d])))
	}
	return tensor.Region{Start: start, Size: size}
}

// sameRegionWalk checks ScanRegion(region) ≡ Each + containment
// filter, step for step; with rng it also stops both at a random step.
func sameRegionWalk(t *testing.T, kind core.Kind, r core.Reader, region tensor.Region, rng *rand.Rand) {
	t.Helper()
	filtered := recordWalk(func(visit func([]uint64, int) bool) {
		r.(core.Iterator).Each(func(p []uint64, slot int) bool { return !region.Contains(p) || visit(p, slot) })
	}, 0)
	scan := func(visit func([]uint64, int) bool) { r.(core.RegionScanner).ScanRegion(region, visit) }
	sameWalk(t, kind, fmt.Sprintf("ScanRegion(%v)", region), recordWalk(scan, 0), filtered)
	if rng != nil && len(filtered) > 1 {
		stop := 1 + rng.Intn(len(filtered)-1)
		sameWalk(t, kind, "ScanRegion(early-stop)", recordWalk(scan, stop), filtered[:stop])
	}
}

func streamingRound(t *testing.T, formats []core.Format, rng *rand.Rand, shape tensor.Shape, c *tensor.Coords) {
	readers, _ := openAll(t, formats, shape, c)
	for i, r := range readers {
		kind := formats[i].Kind()
		want := recordWalk(r.(core.Iterator).Each, 0)
		// A second call walks from the start again and stops mid-way
		// without visiting further.
		if len(want) > 1 {
			stop := 1 + rng.Intn(len(want)-1)
			sameWalk(t, kind, "Each(early-stop)", recordWalk(r.(core.Iterator).Each, stop), want[:stop])
		}
		// The draws do not depend on the reader's kind, so the rounds'
		// datasets (and subtest names) stay what they were.
		for rq := 0; rq < 3; rq++ {
			sameRegionWalk(t, kind, r, randomRegion(rng, shape), rng)
		}
	}
}
