package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// tiledStore builds a 2D store of F fragments, each a 64x64 tile of a
// domain that grows with F (the fragment-scaling benchmark's layout),
// with integer values.
func tiledStore(b *testing.B, F, pointsPerFrag int) (*Store, tensor.Shape) {
	b.Helper()
	const tile = 64
	g := int(math.Ceil(math.Sqrt(float64(F))))
	shape := tensor.Shape{uint64(g) * tile, uint64(g) * tile}
	st, err := Create(fsim.NewPerlmutterSim(), "t", core.Linear, shape,
		WithReaderCache(DefaultCacheBudget))
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
			vals[p] = float64(rng.Intn(99) + 1)
		}
		batches[i] = Batch{Coords: c, Values: vals}
	}
	if _, err := st.WriteBatch(batches, 8); err != nil {
		b.Fatal(err)
	}
	return st, shape
}

// BenchmarkStoreSpMV times y = A·x as a kernel fold over a store of
// many small disjoint fragments — the layout where gathering hits and
// merging them buys nothing, since no cell is ever overwritten. (The
// materialize-first arm it used to carry, ExportAll + linalg.SpMV, now
// runs the same READ and differs only by the Result it builds.)
func BenchmarkStoreSpMV(b *testing.B) {
	for _, F := range []int{1000, 10000} {
		st, shape := tiledStore(b, F, 16)
		x := make([]float64, shape[1])
		for i := range x {
			x[i] = float64(i%7 + 1)
		}
		b.Run(fmt.Sprintf("frags=%d/pushdown", F), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kernel(st, KernelRequest{Op: KernelSpMV, Vec: x}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvert measures format conversion two ways: ExportAll into
// one buffer and one Write of it, against the chunked pipeline. Both
// read the source with the same READ; they differ on the destination
// side — one O(nnz) build against O(chunk) builds.
func BenchmarkConvert(b *testing.B) {
	const F = 256
	st, _ := tiledStore(b, F, 64)

	b.Run("exportall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst, err := convertExportAll(st, fsim.NewPerlmutterSim(), "d", core.CSF)
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, chunk := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("stream/chunk=%d", chunk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst, _, err := Convert(context.Background(), st, fsim.NewPerlmutterSim(), "d", core.CSF,
					ConvertConfig{ChunkPoints: chunk})
				if err != nil {
					b.Fatal(err)
				}
				if err := dst.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
