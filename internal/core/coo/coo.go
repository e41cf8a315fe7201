// Package coo implements the coordinate-list (COO) organization of
// §II-A, the paper's baseline. The input is assumed to be an unsorted 1D
// coordinate vector, so building is a straight serialization — O(1)
// beyond the copy — and reading scans the whole list per probe,
// O(n · n_read) overall.
//
// The package also provides the sorted variant whose trade-off the paper
// discusses (O(n log n) build buys O(log n) probes); it is used by the
// sorted-COO ablation benchmark.
package coo

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

const magic = 0x314f4f43 // "COO1"

// Format is the COO organization. The zero value is the paper's
// unsorted baseline; set Sorted for the sorted variant.
type Format struct {
	Sorted bool
	Opts   core.Options
}

// New returns the unsorted baseline with the paper's serial options.
func New() Format { return Format{} }

// NewSorted returns the sorted variant.
func NewSorted() Format { return Format{Sorted: true} }

func init() {
	core.Register(New())
	core.Register(NewSorted())
}

// Kind implements core.Format.
func (f Format) Kind() core.Kind {
	if f.Sorted {
		return core.COOSorted
	}
	return core.COO
}

// WithOptions implements core.OptionSetter.
func (f Format) WithOptions(o core.Options) core.Format {
	f.Opts = o
	return f
}

// lexLess compares points a and b of c lexicographically, which for
// coordinates inside a fixed shape coincides with row-major linear
// address order.
func lexLess(c *tensor.Coords, a, b int) bool {
	pa, pb := c.At(a), c.At(b)
	for d := range pa {
		if pa[d] != pb[d] {
			return pa[d] < pb[d]
		}
	}
	return a < b
}

// Build implements core.Format. For the unsorted baseline the payload is
// the input buffer serialized as-is and the permutation is identity
// (nil). The sorted variant sorts by linear-address order and returns
// the sort map.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	defer obs.Time("core.build", "kind", f.Kind().String())()
	obs.Count("core.build.points", int64(c.Len()), "kind", f.Kind().String())
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if c.Dims() != shape.Dims() {
		return nil, fmt.Errorf("coo: %d-dim coords for %d-dim shape", c.Dims(), shape.Dims())
	}
	n := c.Len()
	w := buf.NewWriter(16 + 8*len(c.Flat()))
	w.U32(magic)
	w.U16(uint16(c.Dims()))
	if f.Sorted {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U8(0) // reserved
	w.U64(uint64(n))

	if !f.Sorted {
		w.RawU64s(c.Flat())
		return &core.BuildResult{Payload: w.Bytes()}, nil
	}

	order := psort.SortPerm(n, f.Opts.Parallelism, func(i, j int) bool { return lexLess(c, i, j) })
	for _, i := range order {
		w.RawU64s(c.At(i))
	}
	return &core.BuildResult{Payload: w.Bytes(), Perm: tensor.InvertPerm(order)}, nil
}

// Open implements core.Format.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	r := buf.NewReader(payload)
	r.Expect(magic, "COO payload")
	dims := int(r.U16())
	sorted := r.U8() == 1
	r.U8()
	n := r.U64()
	flat := r.RawU64s(n * uint64(dims))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("coo: %w", err)
	}
	if dims != shape.Dims() {
		return nil, fmt.Errorf("coo: payload has %d dims, shape has %d", dims, shape.Dims())
	}
	if sorted != f.Sorted {
		return nil, fmt.Errorf("coo: payload sorted=%v opened as sorted=%v", sorted, f.Sorted)
	}
	coords, err := tensor.FromFlat(dims, flat)
	if err != nil {
		return nil, fmt.Errorf("coo: %w", err)
	}
	return &reader{
		coords: coords, sorted: sorted,
		probes: obs.NewSampled(obs.Global().Counter("core.probe", "kind", f.Kind().String()), obs.DefaultSamplePeriod),
	}, nil
}

type reader struct {
	coords *tensor.Coords
	sorted bool
	// probes counts Lookup calls, sampled: the shared core.probe
	// counter is touched once per flush period, not per point.
	probes *obs.SampledCounter
}

// NNZ implements core.Reader.
func (r *reader) NNZ() int { return r.coords.Len() }

// IndexWords implements core.PayloadSizer: COO stores d words per point,
// the O(n·d) of Table I.
func (r *reader) IndexWords() int { return len(r.coords.Flat()) }

// Lookup implements core.Reader. The unsorted baseline scans every
// stored point (the O(n) per-probe cost of Table I); the sorted variant
// binary-searches.
func (r *reader) Lookup(p []uint64) (int, bool) {
	r.probes.Inc()
	if len(p) != r.coords.Dims() {
		return 0, false
	}
	if r.sorted {
		return r.lookupSorted(p)
	}
	n := r.coords.Len()
scan:
	for i := 0; i < n; i++ {
		q := r.coords.At(i)
		for d := range p {
			if q[d] != p[d] {
				continue scan
			}
		}
		return i, true
	}
	return 0, false
}

func cmpPoint(a, b []uint64) int {
	for d := range a {
		if a[d] != b[d] {
			if a[d] < b[d] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Each implements core.Iterator, visiting points in payload order. The
// point slice is reused; callbacks must not retain it.
func (r *reader) Each(visit func(p []uint64, slot int) bool) {
	for i, n := 0, r.coords.Len(); i < n; i++ {
		if !visit(r.coords.At(i), i) {
			return
		}
	}
}

func (r *reader) lookupSorted(p []uint64) (int, bool) {
	lo, hi := 0, r.coords.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch cmpPoint(r.coords.At(mid), p) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}

var (
	_ core.Format       = Format{}
	_ core.Reader       = (*reader)(nil)
	_ core.PayloadSizer = (*reader)(nil)
	_ core.Iterator     = (*reader)(nil)
)
