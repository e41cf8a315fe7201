// Package linearfmt implements the LINEAR organization of §II-B: each
// point's coordinates are transformed into a row-major linear address,
// shrinking the index from d words per point to one. Build spends O(n·d)
// on the transform; reading scans the unsorted address list per probe,
// O(n · n_read) like COO, but over d× fewer words. As a level
// composition (core.Decl) it is the row-major linearize over one
// unordered level.
//
// The linear-address overflow risk the paper flags is handled the way
// the paper suggests — block decomposition with per-block local
// boundaries — by internal/store.Store; this package itself refuses
// shapes whose volume does not fit in uint64.
package linearfmt

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

const magic = 0x314e494c // "LIN1"

// Format is the LINEAR organization.
type Format struct{}

// New returns the format.
func New() Format { return Format{} }

func init() { core.Register(New()) }

// Kind implements core.Format.
func (Format) Kind() core.Kind { return core.Linear }

func decl(tensor.Shape) (core.Decl, error) {
	return core.Decl{Map: core.MapLinear, Levels: []core.Level{{Width: 1}}}, nil
}

// header: magic u32 · dims u16 · reserved u16.
func header(w *buf.Writer, shape tensor.Shape, _ *core.Decl) {
	w.U32(magic)
	w.U16(uint16(shape.Dims()))
	w.U16(0)
}

func parse(r *buf.Reader, shape tensor.Shape) (core.Decl, error) {
	r.Expect(magic, "LINEAR payload")
	dims := int(r.U16())
	r.U16()
	if dims != shape.Dims() {
		return core.Decl{}, fmt.Errorf("payload has %d dims, shape has %d", dims, shape.Dims())
	}
	return decl(shape)
}

// Build implements core.Format, transforming every coordinate to its
// row-major linear address within shape. The input order is preserved
// (identity permutation), matching the paper's unsorted analysis.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	return core.Build(f.Kind(), c, shape, decl, header)
}

// Open implements core.Format; Lookup linearizes the probe and scans
// the unsorted address list.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	return core.Open(f.Kind(), payload, shape, parse)
}
