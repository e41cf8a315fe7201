// Package linearfmt implements the LINEAR organization of §II-B: each
// point's coordinates are transformed into a row-major linear address,
// shrinking the index from d words per point to one. Build spends O(n·d)
// on the transform; reading scans the unsorted address list per probe,
// O(n · n_read) like COO, but over d× fewer words.
//
// The linear-address overflow risk the paper flags is handled the way
// the paper suggests — block decomposition with per-block local
// boundaries — by internal/store.Chunked; this package itself refuses
// shapes whose volume does not fit in uint64.
package linearfmt

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

const magic = 0x314e494c // "LIN1"

// Format is the LINEAR organization.
type Format struct {
	Opts core.Options
}

// New returns the format with the paper's serial options.
func New() Format { return Format{} }

func init() { core.Register(New()) }

// Kind implements core.Format.
func (Format) Kind() core.Kind { return core.Linear }

// WithOptions implements core.OptionSetter.
func (f Format) WithOptions(o core.Options) core.Format {
	f.Opts = o
	return f
}

// Build implements core.Format, transforming every coordinate to its
// row-major linear address within shape. The input order is preserved
// (identity permutation), matching the paper's unsorted analysis.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	defer obs.Time("core.build", "kind", "LINEAR")()
	obs.Count("core.build.points", int64(c.Len()), "kind", "LINEAR")
	if c.Dims() != shape.Dims() {
		return nil, fmt.Errorf("linearfmt: %d-dim coords for %d-dim shape", c.Dims(), shape.Dims())
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return nil, fmt.Errorf("linearfmt: %w", err)
	}
	n := c.Len()
	w := buf.NewWriter(16 + 8*n)
	w.U32(magic)
	w.U16(uint16(shape.Dims()))
	w.U16(0) // reserved
	w.U64(uint64(n))
	for i := 0; i < n; i++ {
		p := c.At(i)
		if !shape.Contains(p) {
			return nil, fmt.Errorf("linearfmt: point %v outside shape %v", p, shape)
		}
		w.U64(lin.Linearize(p))
	}
	return &core.BuildResult{Payload: w.Bytes()}, nil
}

// Open implements core.Format.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	r := buf.NewReader(payload)
	r.Expect(magic, "LINEAR payload")
	dims := int(r.U16())
	r.U16()
	n := r.U64()
	addrs := r.RawU64s(n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("linearfmt: %w", err)
	}
	if dims != shape.Dims() {
		return nil, fmt.Errorf("linearfmt: payload has %d dims, shape has %d", dims, shape.Dims())
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return nil, fmt.Errorf("linearfmt: %w", err)
	}
	vol, _ := shape.Volume()
	for i, a := range addrs {
		if a >= vol {
			return nil, fmt.Errorf("linearfmt: address %d at %d exceeds volume %d", a, i, vol)
		}
	}
	return &reader{
		addrs: addrs, lin: lin,
		probes: obs.NewSampled(obs.Global().Counter("core.probe", "kind", "LINEAR"), obs.DefaultSamplePeriod),
	}, nil
}

type reader struct {
	addrs []uint64
	lin   *tensor.Linearizer
	// probes counts Lookup calls, sampled: the shared core.probe
	// counter is touched once per flush period, not per point.
	probes *obs.SampledCounter
}

// NNZ implements core.Reader.
func (r *reader) NNZ() int { return len(r.addrs) }

// IndexWords implements core.PayloadSizer: one word per point, the O(n)
// of Table I.
func (r *reader) IndexWords() int { return len(r.addrs) }

// Lookup implements core.Reader by linearizing the probe and scanning
// the unsorted address list.
func (r *reader) Lookup(p []uint64) (int, bool) {
	r.probes.Inc()
	if !r.lin.Shape().Contains(p) {
		return 0, false
	}
	addr := r.lin.Linearize(p)
	for i, a := range r.addrs {
		if a == addr {
			return i, true
		}
	}
	return 0, false
}

// Each implements core.Iterator, visiting points in payload order. The
// point slice is reused; callbacks must not retain it.
func (r *reader) Each(visit func(p []uint64, slot int) bool) {
	p := make([]uint64, r.lin.Shape().Dims())
	for i, a := range r.addrs {
		r.lin.Delinearize(a, p)
		if !visit(p, i) {
			return
		}
	}
}

// Addresses exposes the raw linear addresses for inspection tools.
func (r *reader) Addresses() []uint64 { return r.addrs }

var (
	_ core.Format       = Format{}
	_ core.Reader       = (*reader)(nil)
	_ core.PayloadSizer = (*reader)(nil)
	_ core.Iterator     = (*reader)(nil)
)
