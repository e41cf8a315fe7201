package store

import (
	"math/rand"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

// op is one step of a randomized store history: a write batch or a
// region deletion.
type op struct {
	write  bool
	coords *tensor.Coords
	vals   []float64
	region tensor.Region
}

// replay applies the first n ops to a fresh brute-force model.
func replay(t *testing.T, shape tensor.Shape, ops []op, n int) map[uint64]float64 {
	t.Helper()
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	state := map[uint64]float64{}
	for _, o := range ops[:n] {
		if o.write {
			for i := 0; i < o.coords.Len(); i++ {
				state[lin.Linearize(o.coords.At(i))] = o.vals[i]
			}
		} else {
			p := make([]uint64, shape.Dims())
			for addr := range state {
				lin.Delinearize(addr, p)
				if o.region.Contains(p) {
					delete(state, addr)
				}
			}
		}
	}
	return state
}

// TestRandomizedHistoryAgainstModel drives a random mix of writes and
// deletions and checks the head state and every historical version
// against the brute-force model.
func TestRandomizedHistoryAgainstModel(t *testing.T) {
	shape := tensor.Shape{10, 10}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.COO, core.Linear, core.GCSR, core.CSF, core.BCOO} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind) * 7))
			fs := newSim(t)
			st, err := Create(fs, "h", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			var ops []op
			for step := 0; step < 12; step++ {
				if rng.Intn(3) == 0 && step > 0 {
					start := []uint64{uint64(rng.Intn(8)), uint64(rng.Intn(8))}
					size := []uint64{uint64(rng.Intn(3) + 1), uint64(rng.Intn(3) + 1)}
					for d := range size {
						if start[d]+size[d] > 10 {
							size[d] = 10 - start[d]
						}
					}
					region, err := tensor.NewRegion(shape, start, size)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := st.DeleteRegion(region); err != nil {
						t.Fatal(err)
					}
					ops = append(ops, op{region: region})
				} else {
					coords, vals := randomPoints(rng, shape, 5+rng.Intn(15))
					if _, err := st.Write(coords, vals); err != nil {
						t.Fatal(err)
					}
					ops = append(ops, op{write: true, coords: coords, vals: vals})
				}
			}

			check := func(version int) {
				t.Helper()
				want := replay(t, shape, ops, version)
				res, _, err := readAsOf(st, full.Coords(), version)
				if err != nil {
					t.Fatal(err)
				}
				if res.Coords.Len() != len(want) {
					t.Fatalf("version %d: %d cells, want %d", version, res.Coords.Len(), len(want))
				}
				for i := 0; i < res.Coords.Len(); i++ {
					addr := lin.Linearize(res.Coords.At(i))
					if v, ok := want[addr]; !ok || v != res.Values[i] {
						t.Fatalf("version %d: cell %v = %v, want %v (present=%v)",
							version, res.Coords.At(i), res.Values[i], v, ok)
					}
				}
			}
			for v := 0; v <= len(ops); v++ {
				check(v)
			}

			// The head state also survives compaction.
			want := replay(t, shape, ops, len(ops))
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			res, _, err := readRegion(st, full, StrategyDefault)
			if err != nil {
				t.Fatal(err)
			}
			if res.Coords.Len() != len(want) {
				t.Fatalf("after compact: %d cells, want %d", res.Coords.Len(), len(want))
			}
		})
	}
}
