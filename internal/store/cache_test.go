package store

import (
	"math/rand"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

// sameResult reports whether two read results are byte-identical:
// same points in the same order with bit-equal values.
func sameResult(a, b *Result) bool {
	if a.Coords.Len() != b.Coords.Len() || len(a.Values) != len(b.Values) {
		return false
	}
	for i, n := 0, a.Coords.Len(); i < n; i++ {
		pa, pb := a.Coords.At(i), b.Coords.At(i)
		for d := range pa {
			if pa[d] != pb[d] {
				return false
			}
		}
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// TestCacheConfigurationsIdenticalResults is the cache's correctness
// property: for every registered organization and every store
// configuration (storeConfigs — among them the cache at its default
// budget, starved so every entry is evicted on insert, and off), cold
// reads and warm (cache-hit) reads return identical Results on every
// read path, and so does every configuration.
func TestCacheConfigurationsIdenticalResults(t *testing.T) {
	shape := tensor.Shape{16, 16, 4}
	rng := rand.New(rand.NewSource(7))
	region, err := tensor.NewRegion(shape, []uint64{2, 2, 0}, []uint64{10, 10, 4})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range core.Registered() {
		kind := f.Kind()
		t.Run(kind.String(), func(t *testing.T) {
			type outcome struct {
				point, scan, auto *Result
			}
			var outcomes []outcome
			probe, _ := randomPoints(rng, shape, 120)

			eachStoreConfig(t, func(t *testing.T, opts []Option) {
				st, err := Create(newSim(t), "t", kind, shape, opts...)
				if err != nil {
					t.Fatal(err)
				}
				// Three overlapping generations so reads touch several
				// fragments and merge resolves overlaps.
				wrRng := rand.New(rand.NewSource(11))
				for g := 0; g < 3; g++ {
					coords, vals := randomPoints(wrRng, shape, 150)
					if _, err := st.Write(coords, vals); err != nil {
						t.Fatal(err)
					}
				}

				var o outcome
				// Each read runs twice — cold then warm — and must agree
				// with itself before it is compared across configurations.
				for pass := 0; pass < 2; pass++ {
					point, _, err := readProbe(st, probe)
					if err != nil {
						t.Fatal(err)
					}
					scan, _, err := readRegion(st, region, StrategyScan)
					if err != nil {
						t.Fatal(err)
					}
					auto, _, err := readRegion(st, region, StrategyAuto)
					if err != nil {
						t.Fatal(err)
					}
					if pass == 0 {
						o = outcome{point: point, scan: scan, auto: auto}
						continue
					}
					if !sameResult(o.point, point) || !sameResult(o.scan, scan) || !sameResult(o.auto, auto) {
						t.Fatal("warm read differs from cold")
					}
				}
				if !sameResult(o.scan, o.auto) {
					t.Fatal("auto region read differs from scan")
				}
				if len(outcomes) > 0 {
					base := outcomes[0]
					if !sameResult(base.point, o.point) || !sameResult(base.scan, o.scan) || !sameResult(base.auto, o.auto) {
						t.Fatalf("read results differ from the %s configuration's", storeConfigs[0].name)
					}
				}
				outcomes = append(outcomes, o)
			})
		})
	}
}

// TestColdReadOpensOnlyOverlappingFragments is asserted against the
// simulated file system's byte-level counters: a region read
// overlapping k of N fragments must open and read only those k, each
// in one ranged read of exactly its file (overlap search runs on
// manifest bounding boxes and never touches fragment files), and a warm
// repeat of the same read must perform zero file-system reads.
func TestColdReadOpensOnlyOverlappingFragments(t *testing.T) {
	fs := newSim(t)
	shape := tensor.Shape{8, 8}
	st, err := Create(fs, "t", core.GCSR, shape, WithReaderCache(DefaultCacheBudget))
	if err != nil {
		t.Fatal(err)
	}
	// N = 4 fragments with disjoint row bands: fragment i covers rows
	// {2i, 2i+1}.
	const frags = 4
	for i := uint64(0); i < frags; i++ {
		c := tensor.NewCoords(2, 0)
		var vals []float64
		for col := uint64(0); col < 8; col++ {
			c.Append(2*i, col)
			c.Append(2*i+1, col)
			vals = append(vals, float64(i), float64(i)+0.5)
		}
		if _, err := st.Write(c, vals); err != nil {
			t.Fatal(err)
		}
	}

	// Fragment files in write order (names are sequential), with sizes.
	names, err := fs.List("t/frag-")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != frags {
		t.Fatalf("%d fragment files, want %d", len(names), frags)
	}
	sizes := make([]int64, frags)
	for i, name := range names {
		if sizes[i], err = fs.Size(name); err != nil {
			t.Fatal(err)
		}
	}

	// Rows 2..5 overlap fragments 1 and 2 only: k = 2 of N = 4.
	region, err := tensor.NewRegion(shape, []uint64{2, 0}, []uint64{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	res, rep, err := readRegion(st, region, StrategyDefault)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 32 {
		t.Fatalf("region read found %d points, want 32", res.Coords.Len())
	}
	if rep.Fragments != 2 {
		t.Fatalf("read touched %d fragments, want 2", rep.Fragments)
	}

	cold := fs.Stats()
	// Only the k overlapping fragments are opened — the other N-k are
	// ruled out by manifest bounding boxes without any file I/O.
	if cold.MetaOps != 2 {
		t.Errorf("cold read opened %d files, want 2", cold.MetaOps)
	}
	// Each opened fragment costs one ranged read of the whole file.
	if cold.ReadOps != 2 {
		t.Errorf("cold read issued %d ranged reads, want 2", cold.ReadOps)
	}
	if want := sizes[1] + sizes[2]; cold.BytesRead != want {
		t.Errorf("cold read transferred %d bytes, want the two files' %d", cold.BytesRead, want)
	}
	if cold.WriteOps != 0 {
		t.Errorf("read performed %d writes", cold.WriteOps)
	}

	// Warm repeat: both fragments are cache-resident, so the identical
	// read answers with zero file-system traffic of any kind.
	fs.ResetStats()
	res2, _, err := readRegion(st, region, StrategyDefault)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, res2) {
		t.Fatal("warm read differs from cold")
	}
	warm := fs.Stats()
	if warm.ReadOps != 0 || warm.BytesRead != 0 || warm.MetaOps != 0 || warm.WriteOps != 0 {
		t.Errorf("warm read touched the file system: %+v", warm)
	}
}
