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
// visitor says, and a reader with a structural region walk
// (core.RegionScanner) visits exactly the (point, slot) steps Each
// visits inside the region, in the same order, early stop included.
// A reader without one is region-scanned as Each plus Region.Contains,
// which is the definition itself.
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

func streamingRound(t *testing.T, formats []core.Format, rng *rand.Rand, shape tensor.Shape, c *tensor.Coords) {
	readers, _ := openAll(t, formats, shape, c)
	for i, r := range readers {
		kind := formats[i].Kind()
		it, ok := r.(core.Iterator)
		if !ok {
			t.Fatalf("%v: reader does not implement core.Iterator", kind)
		}
		want := recordWalk(it.Each, 0)
		// A second call walks from the start again and stops mid-way
		// without visiting further.
		if len(want) > 1 {
			stop := 1 + rng.Intn(len(want)-1)
			sameWalk(t, kind, "Each(early-stop)", recordWalk(it.Each, stop), want[:stop])
		}

		// Region walk ≡ full walk + containment filter, for random
		// regions including degenerate 1-cell ones. The draws do not
		// depend on the reader's kind, so the rounds' datasets (and
		// subtest names) stay what they were.
		for rq := 0; rq < 3; rq++ {
			start := make([]uint64, shape.Dims())
			size := make([]uint64, shape.Dims())
			for d := range shape {
				start[d] = uint64(rng.Int63n(int64(shape[d])))
				size[d] = 1 + uint64(rng.Int63n(int64(shape[d]-start[d])))
			}
			region, err := tensor.NewRegion(shape, start, size)
			if err != nil {
				t.Fatal(err)
			}
			filtered := recordWalk(func(visit func([]uint64, int) bool) {
				it.Each(func(p []uint64, slot int) bool { return !region.Contains(p) || visit(p, slot) })
			}, 0)
			stop := 0
			if len(filtered) > 1 {
				stop = 1 + rng.Intn(len(filtered)-1)
			}
			sc, ok := r.(core.RegionScanner)
			if !ok {
				continue
			}
			scan := func(visit func([]uint64, int) bool) { sc.ScanRegion(region, visit) }
			sameWalk(t, kind, fmt.Sprintf("ScanRegion(%v)", region), recordWalk(scan, 0), filtered)
			if stop > 0 {
				sameWalk(t, kind, "ScanRegion(early-stop)", recordWalk(scan, stop), filtered[:stop])
			}
		}
	}
}
