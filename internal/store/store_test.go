package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fragment"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

func newSim(t *testing.T) *fsim.SimFS {
	t.Helper()
	return fsim.NewPerlmutterSim()
}

// model is a brute-force reference the store is checked against.
type model struct {
	lin  *tensor.Linearizer
	data map[uint64]float64
}

func newModel(t *testing.T, shape tensor.Shape) *model {
	t.Helper()
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	return &model{lin: lin, data: map[uint64]float64{}}
}

func (m *model) write(c *tensor.Coords, vals []float64) {
	for i := 0; i < c.Len(); i++ {
		m.data[m.lin.Linearize(c.At(i))] = vals[i]
	}
}

func randomPoints(rng *rand.Rand, shape tensor.Shape, n int) (*tensor.Coords, []float64) {
	c := tensor.NewCoords(shape.Dims(), n)
	vals := make([]float64, n)
	seen := map[uint64]bool{}
	lin, _ := tensor.NewLinearizer(shape, tensor.RowMajor)
	vol, _ := shape.Volume()
	p := make([]uint64, shape.Dims())
	for i := 0; i < n; i++ {
		var a uint64
		for {
			a = uint64(rng.Int63n(int64(vol)))
			if !seen[a] {
				break
			}
		}
		seen[a] = true
		lin.Delinearize(a, p)
		c.Append(p...)
		vals[i] = rng.NormFloat64()
	}
	return c, vals
}

func TestWriteReadAllKinds(t *testing.T) {
	shape := tensor.Shape{12, 12, 12}
	rng := rand.New(rand.NewSource(1))
	coords, vals := randomPoints(rng, shape, 300)
	ref := newModel(t, shape)
	ref.write(coords, vals)

	kinds := append(core.PaperKinds(), core.COOSorted, core.BCOO)
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := st.Write(coords, vals)
			if err != nil {
				t.Fatal(err)
			}
			if rep.NNZ != 300 || rep.Bytes <= 0 {
				t.Fatalf("write report: %+v", rep)
			}
			// Full-domain read must return exactly the model contents,
			// sorted by linear address.
			region, err := tensor.NewRegion(shape, []uint64{0, 0, 0}, []uint64{12, 12, 12})
			if err != nil {
				t.Fatal(err)
			}
			res, rrep, err := readRegion(st, region, StrategyDefault)
			if err != nil {
				t.Fatal(err)
			}
			if res.Coords.Len() != len(ref.data) {
				t.Fatalf("read %d points, want %d", res.Coords.Len(), len(ref.data))
			}
			var prev uint64
			for i := 0; i < res.Coords.Len(); i++ {
				addr := ref.lin.Linearize(res.Coords.At(i))
				if i > 0 && addr <= prev {
					t.Fatal("results not sorted by linear address")
				}
				prev = addr
				want, ok := ref.data[addr]
				if !ok || res.Values[i] != want {
					t.Fatalf("point %v: value %v, want %v (present=%v)",
						res.Coords.At(i), res.Values[i], want, ok)
				}
			}
			if rrep.Found != res.Coords.Len() || rrep.Fragments != 1 {
				t.Fatalf("read report: %+v", rrep)
			}
		})
	}
}

func TestMultiFragmentLaterWins(t *testing.T) {
	shape := tensor.Shape{8, 8}
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			c1 := tensor.NewCoords(2, 0)
			c1.Append(1, 1)
			c1.Append(2, 2)
			if _, err := st.Write(c1, []float64{10, 20}); err != nil {
				t.Fatal(err)
			}
			c2 := tensor.NewCoords(2, 0)
			c2.Append(2, 2) // overwrites
			c2.Append(3, 3)
			if _, err := st.Write(c2, []float64{99, 30}); err != nil {
				t.Fatal(err)
			}
			if st.Fragments() != 2 {
				t.Fatalf("fragments = %d", st.Fragments())
			}
			probe := tensor.NewCoords(2, 3)
			probe.Append(1, 1)
			probe.Append(2, 2)
			probe.Append(3, 3)
			vals, found, _, err := readPoints(st, probe)
			if err != nil {
				t.Fatal(err)
			}
			want := []float64{10, 99, 30}
			for i := range want {
				if !found[i] || vals[i] != want[i] {
					t.Fatalf("probe %d: %v,%v want %v", i, vals[i], found[i], want[i])
				}
			}
		})
	}
}

func TestReadPointsMask(t *testing.T) {
	shape := tensor.Shape{8, 8}
	fs := newSim(t)
	st, err := Create(fs, "t", core.CSF, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(0, 0)
	if _, err := st.Write(c, []float64{7}); err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewCoords(2, 0)
	probe.Append(5, 5)
	probe.Append(0, 0)
	vals, found, _, err := readPoints(st, probe)
	if err != nil {
		t.Fatal(err)
	}
	if found[0] || !found[1] || vals[1] != 7 || vals[0] != 0 {
		t.Fatalf("mask = %v, vals = %v", found, vals)
	}
}

func TestEmptyProbeAndEmptyStore(t *testing.T) {
	shape := tensor.Shape{4, 4}
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := readProbe(st, tensor.NewCoords(2, 0))
	if err != nil || res.Coords.Len() != 0 || rep.Fragments != 0 {
		t.Fatalf("empty probe: %v %v %v", res, rep, err)
	}
	region, _ := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{4, 4})
	res, _, err = readRegion(st, region, StrategyDefault)
	if err != nil || res.Coords.Len() != 0 {
		t.Fatalf("empty store read: %d found, err %v", res.Coords.Len(), err)
	}
}

func TestBBoxPruningSkipsFragments(t *testing.T) {
	shape := tensor.Shape{100, 100}
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	// Two fragments in disjoint corners.
	c1 := tensor.NewCoords(2, 0)
	c1.Append(1, 1)
	if _, err := st.Write(c1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	c2 := tensor.NewCoords(2, 0)
	c2.Append(99, 99)
	if _, err := st.Write(c2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewCoords(2, 0)
	probe.Append(1, 1)
	_, rep, err := readProbe(st, probe)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fragments != 1 {
		t.Fatalf("scanned %d fragments, bbox pruning should keep 1", rep.Fragments)
	}
}

func TestOpenPersistedManifest(t *testing.T) {
	shape := tensor.Shape{6, 6}
	fs := newSim(t)
	st, err := Create(fs, "mystore", core.GCSR, shape, WithCodec(compress.DeltaVarint))
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(3, 4)
	if _, err := st.Write(c, []float64{42}); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(fs, "mystore")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Kind() != core.GCSR || !st2.Shape().Equal(shape) || st2.Fragments() != 1 {
		t.Fatalf("reopened store: kind=%v shape=%v frags=%d", st2.Kind(), st2.Shape(), st2.Fragments())
	}
	probe := tensor.NewCoords(2, 0)
	probe.Append(3, 4)
	vals, found, _, err := readPoints(st2, probe)
	if err != nil || !found[0] || vals[0] != 42 {
		t.Fatalf("reopened read: %v %v %v", vals, found, err)
	}
	// Writes through the reopened handle continue the fragment series.
	if _, err := st2.Write(c, []float64{43}); err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 2 {
		t.Fatalf("fragments = %d", st2.Fragments())
	}
	if _, err := Open(fs, "no-such-store"); err == nil {
		t.Fatal("missing store opened")
	}
}

func TestWithCodecShrinksFragments(t *testing.T) {
	shape := tensor.Shape{64, 64}
	rng := rand.New(rand.NewSource(5))
	coords, vals := randomPoints(rng, shape, 800)
	sizes := map[compress.ID]int64{}
	for _, codec := range []compress.ID{compress.None, compress.DeltaVarint} {
		fs := newSim(t)
		// Sorted COO gives the delta codec a sorted stream to chew on.
		st, err := Create(fs, "t", core.COOSorted, shape, WithCodec(codec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		sizes[codec] = st.TotalBytes()
		// And the data must still read back.
		probe := tensor.NewCoords(2, 0)
		probe.Append(coords.At(0)...)
		_, found, _, err := readPoints(st, probe)
		if err != nil || !found[0] {
			t.Fatalf("codec %d: read back failed: %v", codec, err)
		}
	}
	if sizes[compress.DeltaVarint] >= sizes[compress.None] {
		t.Fatalf("delta-varint did not shrink: %d vs %d",
			sizes[compress.DeltaVarint], sizes[compress.None])
	}
}

func TestWriteReportPhases(t *testing.T) {
	shape := tensor.Shape{32, 32, 32}
	rng := rand.New(rand.NewSource(9))
	coords, vals := randomPoints(rng, shape, 2000)
	fs := newSim(t)
	st, err := Create(fs, "t", core.GCSC, shape)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Write(coords, vals)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Build <= 0 {
		t.Fatalf("GCSC build time = %v", rep.Build)
	}
	if rep.Write <= 0 || rep.Others <= 0 {
		t.Fatalf("modeled I/O phases empty: %+v", rep)
	}
	if rep.Sum() != rep.Build+rep.Reorg+rep.Write+rep.Others {
		t.Fatal("Sum mismatch")
	}
	// On the calibrated SimFS the fragment write must reflect the
	// byte count: ~bytes/185MB/s plus the (instrumentation-dependent)
	// wall time of encoding.
	wantWrite := float64(rep.Bytes) / 185e6
	if got := rep.Write.Seconds(); got < wantWrite*0.9 || got > wantWrite+0.05 {
		t.Fatalf("modeled write %.6fs for %d bytes, want about %.6fs", got, rep.Bytes, wantWrite)
	}
}

func TestStoreErrors(t *testing.T) {
	shape := tensor.Shape{4, 4}
	fs := newSim(t)
	st, err := Create(fs, "t", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 1)
	if _, err := st.Write(c, []float64{1, 2}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("value count mismatch not rejected as ErrShapeMismatch: %v", err)
	}
	c3 := tensor.NewCoords(3, 0)
	c3.Append(1, 1, 1)
	if _, err := st.Write(c3, []float64{1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("dims mismatch not rejected as ErrShapeMismatch: %v", err)
	}
	if _, _, err := readProbe(st, c3); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("probe dims mismatch not rejected as ErrShapeMismatch: %v", err)
	}
	if _, err := Create(fs, "t2", core.Kind(88), shape); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Create(fs, "t3", core.COO, tensor.Shape{1 << 33, 1 << 33}); err == nil {
		t.Error("overflow shape accepted")
	}
	if _, err := Create(fs, "t4", core.COO, shape, WithCodec(compress.ID(9))); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestOSFSBackend(t *testing.T) {
	// The whole engine must work identically on real files.
	fs, err := fsim.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shape := tensor.Shape{10, 10}
	st, err := Create(fs, "t", core.CSF, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(4, 5)
	c.Append(9, 9)
	if _, err := st.Write(c, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(fs, "t")
	if err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewCoords(2, 0)
	probe.Append(9, 9)
	vals, found, _, err := readPoints(st2, probe)
	if err != nil || !found[0] || vals[0] != 2 {
		t.Fatalf("OSFS read back: %v %v %v", vals, found, err)
	}
}

// TestRandomizedAgainstModel drives random writes and reads across all
// organizations and checks every read against the brute-force model.
func TestRandomizedAgainstModel(t *testing.T) {
	shape := tensor.Shape{10, 10, 10}
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind)))
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			ref := newModel(t, shape)
			for round := 0; round < 5; round++ {
				coords, vals := randomPoints(rng, shape, 50+rng.Intn(100))
				if _, err := st.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
				ref.write(coords, vals)

				// Random sub-region read.
				start := []uint64{uint64(rng.Intn(8)), uint64(rng.Intn(8)), uint64(rng.Intn(8))}
				size := []uint64{uint64(rng.Intn(3) + 1), uint64(rng.Intn(3) + 1), uint64(rng.Intn(3) + 1)}
				for d := range size {
					if start[d]+size[d] > 10 {
						size[d] = 10 - start[d]
					}
				}
				region, err := tensor.NewRegion(shape, start, size)
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := readRegion(st, region, StrategyDefault)
				if err != nil {
					t.Fatal(err)
				}
				got := map[uint64]float64{}
				for i := 0; i < res.Coords.Len(); i++ {
					got[ref.lin.Linearize(res.Coords.At(i))] = res.Values[i]
				}
				want := map[uint64]float64{}
				region.Each(func(p []uint64) {
					if v, ok := ref.data[ref.lin.Linearize(p)]; ok {
						want[ref.lin.Linearize(p)] = v
					}
				})
				if len(got) != len(want) {
					t.Fatalf("round %d: read %d points, want %d", round, len(got), len(want))
				}
				for a, v := range want {
					if got[a] != v {
						t.Fatalf("round %d: addr %d = %v, want %v", round, a, got[a], v)
					}
				}
			}
		})
	}
}

// TestOpenRejectsOversizedManifestCount is the regression test for a
// fuzzer-found hang: a corrupt manifest declaring ~2^56 fragments must
// be rejected up front, not drive an unbounded decode loop.
func TestOpenRejectsOversizedManifestCount(t *testing.T) {
	fs := newSim(t)
	// magic "SMN2", kind 0, codec 0, dims 0, then garbage counts.
	data := []byte("SMN2\x00\x00\x00\x00\x00\x00\x00\b\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00")
	if err := fs.WriteFile("bad/MANIFEST", data); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Open(fs, "bad")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, fragment.ErrCorrupt) {
			t.Fatalf("corrupt manifest: %v, want ErrCorrupt", err)
		}
	case <-time.After(5 * time.Second): // the fixed code rejects in microseconds
		t.Fatal("Open hung on corrupt manifest")
	}
}

func TestFragmentNamesAreSequential(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "p", core.COO, tensor.Shape{4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c := tensor.NewCoords(1, 0)
		c.Append(uint64(i))
		rep, err := st.Write(c, []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("p/frag-%06d", i)
		if rep.Name != want {
			t.Fatalf("fragment name %q, want %q", rep.Name, want)
		}
	}
}
