package filter

import (
	"fmt"
	"math/rand"
	"testing"

	"sparseart/internal/gen"
	"sparseart/internal/tensor"
)

// formFragment is one simulated fragment: its box and both filters.
type formFragment struct {
	box  tensor.BBox
	filt *Filter
	keys *Keys
}

// splitFragments deals c's points into n fragments — contiguous runs of
// the generator's row-major order (slab) or uniformly at random — and
// builds each one's filters the way the store's write path does.
func splitFragments(c *tensor.Coords, lin *tensor.Linearizer, n int, random bool, rng *rand.Rand) []formFragment {
	parts := make([]*tensor.Coords, n)
	for i := range parts {
		parts[i] = tensor.NewCoords(c.Dims(), c.Len()/n+1)
	}
	for i := 0; i < c.Len(); i++ {
		f := i * n / c.Len()
		if random {
			f = rng.Intn(n)
		}
		parts[f].Append(c.At(i)...)
	}
	var out []formFragment
	for _, p := range parts {
		if box, ok := p.Bounds(); ok {
			out = append(out, formFragment{box: box, filt: Build(p), keys: BuildKeys(p, lin)})
		}
	}
	return out
}

// formWindowEdges are the window edges measured, as divisors of the
// shape's edge.
var formWindowEdges = []uint64{64, 10, 4}

// BenchmarkFilterForms measures what each form of the coordinate filter
// still earns beside the key filter, over the Table II generators at
// gen.Small (2/3/4-D) and a point_wire-shaped 64³ uniform tile, each
// dealt into 1/8/64 (tile: 8/64/512) fragments by row-major slab or at
// random. point_form_% is the share of box candidates of a uniform
// random probe point that the coordinate filter dismisses and the key
// filter admits — what asking the coordinate filter before the key
// filter would save. skip_1/N_% is the share of box candidates of a
// random window of edge 1/N of the shape's that the coordinate filter
// dismisses. Run with
//
//	go test ./internal/filter -run X -bench FilterForms -benchtime 1x
func BenchmarkFilterForms(b *testing.B) {
	type dataset struct {
		name   string
		coords *tensor.Coords
		shape  tensor.Shape
		frags  []int
	}
	var sets []dataset
	for _, p := range gen.Patterns() {
		for dims := 2; dims <= 4; dims++ {
			cfg, err := gen.TableIIConfig(p, dims, gen.Small, 1)
			if err != nil {
				b.Fatal(err)
			}
			ds, err := gen.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sets = append(sets, dataset{fmt.Sprintf("%v-%dD", p, dims), ds.Coords, cfg.Shape, []int{1, 8, 64}})
		}
	}
	// 64 fragments of 312 points fill a 64³ tile in the point_wire
	// workload: 19 968 uniform points.
	rng := rand.New(rand.NewSource(1))
	tile := tensor.Shape{64, 64, 64}
	seen := map[[3]uint64]bool{}
	tc := tensor.NewCoords(3, 64*312)
	for tc.Len() < 64*312 {
		p := [3]uint64{rng.Uint64() % 64, rng.Uint64() % 64, rng.Uint64() % 64}
		if !seen[p] {
			seen[p] = true
			tc.Append(p[:]...)
		}
	}
	sets = append(sets, dataset{"tile-64^3", tc, tile, []int{8, 64, 512}})

	for _, ds := range sets {
		lin, err := tensor.NewLinearizer(ds.shape, tensor.RowMajor)
		if err != nil {
			b.Fatal(err)
		}
		held := make(map[uint64]bool, ds.coords.Len())
		for i := 0; i < ds.coords.Len(); i++ {
			held[lin.Linearize(ds.coords.At(i))] = true
		}
		for _, n := range ds.frags {
			for _, random := range []bool{false, true} {
				batching := "slab"
				if random {
					batching = "random"
				}
				b.Run(fmt.Sprintf("%s/frags=%d/%s", ds.name, n, batching), func(b *testing.B) {
					rng := rand.New(rand.NewSource(int64(n)))
					frags := splitFragments(ds.coords, lin, n, random, rng)
					var pointCands, pointSaved int
					windowCands := make([]int, len(formWindowEdges))
					windowSkips := make([]int, len(formWindowEdges))
					for i := 0; i < b.N; i++ {
						p := make([]uint64, ds.shape.Dims())
						for probes := 0; probes < 2000; {
							for d, m := range ds.shape {
								p[d] = rng.Uint64() % m
							}
							if held[lin.Linearize(p)] {
								continue
							}
							probes++
							for _, f := range frags {
								if !f.box.Contains(p) {
									continue
								}
								pointCands++
								if !f.filt.MayOverlapRegion(cell(p...)) && f.keys.MayContain(lin.Linearize(p)) {
									pointSaved++
								}
							}
						}
						for w, div := range formWindowEdges {
							for windows := 0; windows < 500; windows++ {
								r := tensor.Region{Start: make([]uint64, ds.shape.Dims()), Size: make([]uint64, ds.shape.Dims())}
								for d, m := range ds.shape {
									r.Size[d] = max(m/div, 1)
									r.Start[d] = rng.Uint64() % (m - r.Size[d] + 1)
								}
								box := r.BBox()
								for _, f := range frags {
									if !f.box.Overlaps(box) {
										continue
									}
									windowCands[w]++
									if !f.filt.MayOverlapRegion(r) {
										windowSkips[w]++
									}
								}
							}
						}
					}
					b.ReportMetric(float64(ds.coords.Len())/float64(len(frags)), "pts/frag")
					b.ReportMetric(percent(pointSaved, pointCands), "point_form_%")
					for w, div := range formWindowEdges {
						b.ReportMetric(percent(windowSkips[w], windowCands[w]), fmt.Sprintf("skip_1/%d_%%", div))
					}
				})
			}
		}
	}
}

func percent(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
