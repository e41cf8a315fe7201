package coretest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// randomShape draws a 1–4 dimensional shape with small extents, biased
// toward anisotropy (mixing extent 1 axes with wide ones) since the
// 2D-remap formats are most sensitive to extent imbalance.
func randomShape(rng *rand.Rand) tensor.Shape {
	shape := make(tensor.Shape, 1+rng.Intn(4))
	for i := range shape {
		shape[i] = uint64(1 + rng.Intn(12))
	}
	return shape
}

// RunDifferential drives randomized build→probe→range rounds through
// every format simultaneously, comparing all of them against a
// map-based oracle and against each other. Each round draws a fresh
// shape and dataset; every format builds it, must return a valid
// bijection as its permutation, must find every stored point at the
// permuted slot, must miss every absent probe, and must region-scan
// exactly the oracle's point set for random query regions. -short runs
// fewer and smaller rounds.
func RunDifferential(t *testing.T, formats []core.Format) {
	if len(formats) == 0 {
		t.Fatal("no formats to test")
	}
	rounds, maxPoints := 12, 600
	if testing.Short() {
		rounds, maxPoints = 4, 150
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < rounds; round++ {
		shape := randomShape(rng)
		c := randomDataset(rng, shape, rng.Intn(maxPoints+1))
		t.Run(fmt.Sprintf("round%02d_%v_n%d", round, shape, c.Len()), func(t *testing.T) {
			differentialRound(t, formats, rng, shape, c)
		})
	}
}

// openAll builds and opens the dataset under every format, checking the
// permutation contract on the way.
func openAll(t *testing.T, formats []core.Format, shape tensor.Shape, c *tensor.Coords) ([]core.Reader, []*core.BuildResult) {
	t.Helper()
	readers := make([]core.Reader, len(formats))
	built := make([]*core.BuildResult, len(formats))
	for i, f := range formats {
		built[i], readers[i] = buildOpen(t, f, shape, c)
	}
	return readers, built
}

func differentialRound(t *testing.T, formats []core.Format, rng *rand.Rand, shape tensor.Shape, c *tensor.Coords) {
	readers, built := openAll(t, formats, shape, c)
	for i, r := range readers {
		if r.NNZ() != c.Len() {
			t.Fatalf("%v: NNZ %d, want %d", formats[i].Kind(), r.NNZ(), c.Len())
		}
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]int{} // linear address -> input index
	for i := 0; i < c.Len(); i++ {
		oracle[lin.Linearize(c.At(i))] = i
	}

	// Probe phase: a mixed sequence of stored and random points. Every
	// format must agree with the oracle on membership, and a hit must
	// land on the slot the format's own permutation dictates.
	vol, _ := shape.Volume()
	probe := make([]uint64, shape.Dims())
	for trial := 0; trial < 300; trial++ {
		addr := uint64(0)
		if trial%2 == 0 && c.Len() > 0 {
			addr = lin.Linearize(c.At(rng.Intn(c.Len())))
		} else {
			addr = uint64(rng.Int63n(int64(vol)))
		}
		lin.Delinearize(addr, probe)
		inputIdx, want := oracle[addr]
		for i, r := range readers {
			slot, ok := r.Lookup(probe)
			if ok != want || (ok && slot != slotOf(built[i], inputIdx)) {
				t.Fatalf("%v: Lookup(%v) = %d, %v; oracle says %v at slot %d", formats[i].Kind(), probe, slot, ok, want, slotOf(built[i], inputIdx))
			}
		}
	}

	// Range phase: random query regions; every format must region-scan
	// exactly the oracle's points inside the region.
	for rq := 0; rq < 3; rq++ {
		region := randomRegion(rng, shape)
		var want []string
		for _, idx := range oracle {
			if region.Contains(c.At(idx)) {
				want = append(want, fmt.Sprint(c.At(idx)))
			}
		}
		slices.Sort(want)
		for i, r := range readers {
			var got []string
			r.(core.RegionScanner).ScanRegion(region, func(p []uint64, _ int) bool {
				got = append(got, fmt.Sprint(p))
				return true
			})
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("%v: ScanRegion(%v) found %v, oracle %v", formats[i].Kind(), region, got, want)
			}
		}
	}
}
