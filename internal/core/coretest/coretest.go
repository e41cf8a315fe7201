// Package coretest is a conformance battery for storage organizations:
// every Format implementation must pass RunConformance. It checks the
// Build/Open/Lookup contract — payload self-description, the map-vector
// permutation semantics of Algorithms 1–3, found/not-found correctness
// against a brute-force model, determinism under concurrent builds, the
// walks, the same answers from an Open over a payload off its word
// boundaries, and corrupt-payload rejection.
package coretest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// PaperExample returns the 3x3x3 tensor of the paper's Fig. 1 with its
// five points in the paper's order.
func PaperExample() (tensor.Shape, *tensor.Coords) {
	shape := tensor.Shape{3, 3, 3}
	c := tensor.NewCoords(3, 5)
	c.AppendFlat([]uint64{0, 0, 1, 0, 1, 1, 0, 1, 2, 2, 2, 1, 2, 2, 2})
	return shape, c
}

// randomDataset draws n distinct points inside shape, in random order.
func randomDataset(rng *rand.Rand, shape tensor.Shape, n int) *tensor.Coords {
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		panic(err)
	}
	vol, _ := shape.Volume()
	n = min(n, int(vol))
	seen := map[uint64]bool{}
	c := tensor.NewCoords(shape.Dims(), n)
	p := make([]uint64, shape.Dims())
	for len(seen) < n {
		addr := uint64(rng.Int63n(int64(vol)))
		if seen[addr] {
			continue
		}
		seen[addr] = true
		lin.Delinearize(addr, p)
		c.Append(p...)
	}
	return c
}

// buildOpen builds c and opens the payload, checking that the map
// vector is nil (identity) or a bijection over the input points.
func buildOpen(t *testing.T, f core.Format, shape tensor.Shape, c *tensor.Coords) (*core.BuildResult, core.Reader) {
	t.Helper()
	built, err := f.Build(c, shape)
	if err != nil {
		t.Fatalf("%v: Build: %v", f.Kind(), err)
	}
	if err := tensor.CheckPerm(built.Perm); built.Perm != nil && (err != nil || len(built.Perm) != c.Len()) {
		t.Fatalf("%v: perm of %d slots for %d points is not a bijection: %v", f.Kind(), len(built.Perm), c.Len(), err)
	}
	r, err := f.Open(built.Payload, shape)
	if err != nil {
		t.Fatalf("%v: Open: %v", f.Kind(), err)
	}
	return built, r
}

// slotOf is the value slot of input point i.
func slotOf(built *core.BuildResult, i int) int {
	if built.Perm != nil {
		return built.Perm[i]
	}
	return i
}

// checkRoundTrip builds the dataset, reopens the payload, and verifies
// that every stored point is found at the slot its permutation
// dictates and that absent probes miss.
func checkRoundTrip(t *testing.T, f core.Format, shape tensor.Shape, c *tensor.Coords) {
	t.Helper()
	built, r := buildOpen(t, f, shape, c)
	n := c.Len()
	if r.NNZ() != n {
		t.Fatalf("NNZ = %d, want %d", r.NNZ(), n)
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	present := map[uint64]bool{}
	for i := 0; i < n; i++ {
		if slot, ok := r.Lookup(c.At(i)); !ok || slot != slotOf(built, i) {
			t.Fatalf("point %v (index %d): slot %d found %v, want slot %d", c.At(i), i, slot, ok, slotOf(built, i))
		}
		present[lin.Linearize(c.At(i))] = true
	}
	vol, _ := shape.Volume()
	p := make([]uint64, shape.Dims())
	for addr, misses := uint64(0), 0; addr < vol && misses < 200; addr++ {
		if present[addr] {
			continue
		}
		misses++
		lin.Delinearize(addr, p)
		if _, ok := r.Lookup(p); ok {
			t.Fatalf("absent point %v reported found", p)
		}
	}
	// Out-of-shape and wrong-rank probes must miss, not panic.
	for _, q := range [][]uint64{append([]uint64(nil), shape...), make([]uint64, shape.Dims()+1)} {
		if _, ok := r.Lookup(q); ok {
			t.Fatalf("out-of-shape or wrong-rank probe %v found", q)
		}
	}
	if w := r.(core.PayloadSizer).IndexWords(); n > 0 && w <= 0 {
		t.Fatalf("IndexWords = %d", w)
	}
}

// RunConformance exercises the full battery against f.
func RunConformance(t *testing.T, f core.Format) {
	t.Run("PaperExample", func(t *testing.T) {
		shape, c := PaperExample()
		checkRoundTrip(t, f, shape, c)
	})

	t.Run("Empty", func(t *testing.T) {
		_, r := buildOpen(t, f, tensor.Shape{4, 4}, tensor.NewCoords(2, 0))
		if r.NNZ() != 0 {
			t.Fatalf("NNZ = %d", r.NNZ())
		}
		if _, ok := r.Lookup([]uint64{1, 1}); ok {
			t.Fatal("empty tensor found a point")
		}
	})

	t.Run("SinglePoint", func(t *testing.T) {
		c := tensor.NewCoords(4, 1)
		c.Append(4, 0, 3, 2)
		checkRoundTrip(t, f, tensor.Shape{5, 5, 5, 5}, c)
	})

	t.Run("OneDimensional", func(t *testing.T) {
		c := tensor.NewCoords(1, 0)
		c.AppendFlat([]uint64{5, 0, 63, 17})
		checkRoundTrip(t, f, tensor.Shape{64}, c)
	})

	t.Run("FullTensor", func(t *testing.T) {
		c := tensor.NewCoords(2, 9)
		for i := uint64(0); i < 9; i++ {
			c.Append(i/3, i%3)
		}
		checkRoundTrip(t, f, tensor.Shape{3, 3}, c)
	})

	t.Run("RandomDatasets", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		// Strongly anisotropic, minimum extent first, and 5-dimensional
		// shapes among them.
		for _, shape := range []tensor.Shape{{50, 50}, {16, 16, 16}, {8, 8, 8, 8}, {100, 3}, {2, 1000}, {5, 4, 3, 2, 2}} {
			for _, n := range []int{1, 17, 300} {
				c := randomDataset(rng, shape, n)
				t.Run(fmt.Sprintf("%v_n%d", shape, c.Len()), func(t *testing.T) {
					checkRoundTrip(t, f, shape, c)
				})
			}
		}
	})

	t.Run("Deterministic", func(t *testing.T) {
		shape := tensor.Shape{20, 20, 20}
		c := randomDataset(rand.New(rand.NewSource(11)), shape, 200)
		a, _ := buildOpen(t, f, shape, c)
		b, _ := buildOpen(t, f, shape, c.Clone())
		if !bytes.Equal(a.Payload, b.Payload) {
			t.Fatal("two builds of the same input differ")
		}
	})

	t.Run("ParallelBuildEqualsSerial", func(t *testing.T) {
		// Builds share no state: builds racing on one input, each
		// sorting past psort's serial cutoff on every core, return a
		// lone build's payload and map vector.
		shape := tensor.Shape{30, 30, 30}
		c := randomDataset(rand.New(rand.NewSource(13)), shape, 10000)
		serial, _ := buildOpen(t, f, shape, c)
		parallel := make([]*core.BuildResult, 3)
		var wg sync.WaitGroup
		for i := range parallel {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parallel[i], _ = f.Build(c, shape)
			}()
		}
		wg.Wait()
		for _, p := range parallel {
			if p == nil || !bytes.Equal(serial.Payload, p.Payload) || !slices.Equal(serial.Perm, p.Perm) {
				t.Fatal("concurrent build differs from a lone one")
			}
		}
	})

	t.Run("IteratorVisitsEveryPointOnce", func(t *testing.T) {
		shape := tensor.Shape{9, 7, 8}
		c := randomDataset(rand.New(rand.NewSource(17)), shape, 120)
		built, r := buildOpen(t, f, shape, c)
		want := map[string]int{} // point -> expected slot
		for i := 0; i < c.Len(); i++ {
			want[fmt.Sprint(c.At(i))] = slotOf(built, i)
		}
		walk := recordWalk(r.(core.Iterator).Each, 0)
		seen := map[int]bool{}
		for _, v := range walk {
			if slot, ok := want[v.p]; !ok || slot != v.slot || seen[v.slot] {
				t.Fatalf("Each visited %v at slot %d: stored %v at slot %d, repeated %v", v.p, v.slot, ok, slot, seen[v.slot])
			}
			seen[v.slot] = true
		}
		if len(walk) != c.Len() {
			t.Fatalf("Each visited %d of %d points", len(walk), c.Len())
		}
		if stopped := recordWalk(r.(core.Iterator).Each, 5); len(stopped) != 5 {
			t.Fatalf("early stop visited %d points, want 5", len(stopped))
		}
	})

	t.Run("RegionScanMatchesFilter", func(t *testing.T) {
		shape := tensor.Shape{10, 10, 10}
		c := randomDataset(rand.New(rand.NewSource(23)), shape, 200)
		_, r := buildOpen(t, f, shape, c)
		region, err := tensor.NewRegion(shape, []uint64{2, 3, 0}, []uint64{5, 4, 7})
		if err != nil {
			t.Fatal(err)
		}
		sameRegionWalk(t, f.Kind(), r, region, nil)
	})

	t.Run("MisalignedPayload", func(t *testing.T) { checkMisaligned(t, f) })

	t.Run("BuildDoesNotMutateInput", func(t *testing.T) {
		shape, c := PaperExample()
		before := c.Clone()
		buildOpen(t, f, shape, c)
		if !c.Equal(before) {
			t.Fatal("Build mutated its input")
		}
	})

	t.Run("Errors", func(t *testing.T) {
		shape := tensor.Shape{4, 4}
		c := tensor.NewCoords(3, 1)
		c.Append(1, 1, 1)
		if _, err := f.Build(c, shape); err == nil {
			t.Error("dims mismatch accepted")
		}
		if _, err := f.Build(tensor.NewCoords(2, 0), tensor.Shape{0, 4}); err == nil {
			t.Error("invalid shape accepted")
		}
		for _, garbage := range [][]byte{{1, 2, 3}, nil} {
			if _, err := f.Open(garbage, shape); err == nil {
				t.Errorf("payload %v accepted", garbage)
			}
		}
		// A valid payload truncated mid-body must be rejected.
		pshape, pc := PaperExample()
		built, _ := buildOpen(t, f, pshape, pc)
		if _, err := f.Open(built.Payload[:len(built.Payload)-7], pshape); err == nil {
			t.Error("truncated payload accepted")
		}
	})
}
