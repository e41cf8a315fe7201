package store

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// BenchmarkFragmentScaling: point-region reads against stores of
// F = 100 / 1k / 10k fragments. Each fragment is a 64x64 tile of a
// domain that grows with F (tiles don't pile up on each other), so a
// fixed-size query window overlaps O(1) fragments regardless of F and
// the spatial index should keep latency near-flat as F grows (the
// linear scan it replaced grew with F: EXPERIMENTS.md, "Fragment
// index"). Reports p50-ns and p99-ns alongside ns/op.
func BenchmarkFragmentScaling(b *testing.B) {
	const tile = 64
	const pointsPerFrag = 16
	for _, F := range []int{100, 1000, 10000} {
		g := int(math.Ceil(math.Sqrt(float64(F)))) // g x g tile grid
		shape := tensor.Shape{uint64(g) * tile, uint64(g) * tile}
		b.Run(fmt.Sprintf("frags=%d", F), func(b *testing.B) {
			st, err := Create(fsim.NewPerlmutterSim(), "t", core.Linear, shape)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			batches := make([]Batch, F)
			for i := range batches {
				ox := uint64(i%g) * tile
				oy := uint64(i/g) * tile
				c := tensor.NewCoords(2, pointsPerFrag)
				vals := make([]float64, pointsPerFrag)
				seen := map[uint64]bool{}
				for p := 0; p < pointsPerFrag; p++ {
					var x, y uint64
					for {
						x, y = uint64(rng.Intn(tile)), uint64(rng.Intn(tile))
						if !seen[x*tile+y] {
							break
						}
					}
					seen[x*tile+y] = true
					c.Append(ox+x, oy+y)
					vals[p] = rng.NormFloat64()
				}
				batches[i] = Batch{Coords: c, Values: vals}
			}
			if _, err := st.WriteBatch(batches, 8); err != nil {
				b.Fatal(err)
			}

			// Pre-build fixed-size query windows (one tile's span) at
			// random positions; the same seed gives both knob settings
			// the same query stream.
			qrng := rand.New(rand.NewSource(2))
			regions := make([]tensor.Region, 256)
			for i := range regions {
				start := []uint64{
					uint64(qrng.Intn(g)) * tile,
					uint64(qrng.Intn(g)) * tile,
				}
				r, err := tensor.NewRegion(shape, start, []uint64{tile, tile})
				if err != nil {
					b.Fatal(err)
				}
				regions[i] = r
			}

			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, _, err := readRegion(st, regions[i%len(regions)], StrategyScan); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			pick := func(q int) time.Duration {
				i := len(lat) * q / 100
				if i >= len(lat) {
					i = len(lat) - 1
				}
				return lat[i]
			}
			b.ReportMetric(float64(pick(50).Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(pick(99).Nanoseconds()), "p99-ns")
		})
	}
}
