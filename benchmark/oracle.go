package main

import (
	"math"
	"sync/atomic"

	"sparseart/internal/tensor"
)

// oracle is the benchmark's in-memory truth: for every cell of the
// tensor, which write last touched it (0 = never written or deleted).
// A cell's value is a pure function of its address and that write's
// number, so the oracle needs four bytes a cell and a reply can be
// checked without keeping any batch. Entries are atomics because in
// ingest_mixed the writer updates the oracle while the reader checks
// against it.
type oracle struct {
	shape tensor.Shape
	lin   *tensor.Linearizer
	gen   []atomic.Uint32
	live  atomic.Int64
}

func newOracle(shape tensor.Shape) (*oracle, error) {
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return nil, err
	}
	vol, _ := shape.Volume()
	return &oracle{shape: shape, lin: lin, gen: make([]atomic.Uint32, vol)}, nil
}

// reset empties the oracle.
func (o *oracle) reset() {
	clear(o.gen)
	o.live.Store(0)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cellValue is the value write number g stores at linear address addr:
// the integer part names the write, the fraction the cell, so a reply
// carrying some other cell's value or a stale write is told apart.
func cellValue(addr uint64, g uint32) float64 {
	return float64(g) + float64(mix64(addr)&1023)/1024
}

// writeOf inverts cellValue: the write number a value claims.
func writeOf(v float64) uint32 { return uint32(v) }

// pointSum folds one (address, value) pair into an order-independent
// checksum.
func pointSum(addr uint64, v float64) uint64 {
	return mix64(addr*0x9e3779b97f4a7c15 ^ math.Float64bits(v))
}

// fill sets coords' values to what write g stores there.
func (o *oracle) fill(coords *tensor.Coords, vals []float64, g uint32) {
	for i := range vals {
		vals[i] = cellValue(o.lin.Linearize(coords.At(i)), g)
	}
}

// apply records that write g now owns every cell of coords.
func (o *oracle) apply(coords *tensor.Coords, g uint32) {
	added := int64(0)
	for i, n := 0, coords.Len(); i < n; i++ {
		if o.gen[o.lin.Linearize(coords.At(i))].Swap(g) == 0 {
			added++
		}
	}
	o.live.Add(added)
}

// rows visits the region as runs of consecutive linear addresses (the
// last dimension is contiguous in row-major order).
func (o *oracle) rows(region tensor.Region, visit func(base, n uint64)) {
	d := region.Dims()
	outer := tensor.Region{Start: region.Start, Size: append([]uint64(nil), region.Size...)}
	outer.Size[d-1] = 1
	outer.Each(func(p []uint64) { visit(o.lin.Linearize(p), region.Size[d-1]) })
}

// deleteRegion clears every cell of region.
func (o *oracle) deleteRegion(region tensor.Region) {
	removed := int64(0)
	o.rows(region, func(base, n uint64) {
		for a := base; a < base+n; a++ {
			if o.gen[a].Swap(0) != 0 {
				removed++
			}
		}
	})
	o.live.Add(-removed)
}

// lookup returns the write owning the cell at p (0 = absent).
func (o *oracle) lookup(p []uint64) (addr uint64, g uint32) {
	addr = o.lin.Linearize(p)
	return addr, o.gen[addr].Load()
}

// regionDigest is what a correct region read must reproduce: how many
// live cells, their checksum, and the sum of their values.
type regionDigest struct {
	count int
	check uint64
	sum   float64
}

func (o *oracle) region(region tensor.Region) regionDigest {
	var dg regionDigest
	o.rows(region, func(base, n uint64) {
		for a := base; a < base+n; a++ {
			if g := o.gen[a].Load(); g != 0 {
				v := cellValue(a, g)
				dg.count++
				dg.check += pointSum(a, v)
				dg.sum += v
			}
		}
	})
	return dg
}

// digestResult folds a region reply the same way.
func (o *oracle) digestResult(coords *tensor.Coords, vals []float64) regionDigest {
	dg := regionDigest{count: coords.Len()}
	for i, v := range vals {
		dg.check += pointSum(o.lin.Linearize(coords.At(i)), v)
		dg.sum += v
	}
	return dg
}

// closeTo compares two sums to 1e-9 relative.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
