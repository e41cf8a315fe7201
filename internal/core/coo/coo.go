// Package coo implements the coordinate-list (COO) organization of
// §II-A, the paper's baseline. The input is assumed to be an unsorted 1D
// coordinate vector, so building is a straight serialization — O(1)
// beyond the copy — and reading scans the whole list per probe,
// O(n · n_read) overall.
//
// The package also provides the sorted variant whose trade-off the paper
// discusses (O(n log n) build buys O(log n) probes); it is used by the
// sorted-COO ablation benchmark.
//
// As a level composition (core.Decl) both are the identity remap over
// one d-wide level: unordered for COO, binary-searched in row-major
// linear-address order for COO-sorted.
package coo

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

const magic = 0x314f4f43 // "COO1"

// Format is the COO organization. The zero value is the paper's
// unsorted baseline; set Sorted for the sorted variant.
type Format struct {
	Sorted bool
}

// New returns the unsorted baseline.
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

func (f Format) decl(shape tensor.Shape) (core.Decl, error) {
	search := core.Unordered
	if f.Sorted {
		search = core.Binary
	}
	return core.Decl{Levels: []core.Level{{Width: shape.Dims(), Search: search}}}, nil
}

// header: magic u32 · dims u16 · sorted u8 · reserved u8.
func (f Format) header(w *buf.Writer, shape tensor.Shape, _ *core.Decl) {
	w.U32(magic)
	w.U16(uint16(shape.Dims()))
	if f.Sorted {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U8(0)
}

func (f Format) parse(r *buf.Reader, shape tensor.Shape) (core.Decl, error) {
	r.Expect(magic, "COO payload")
	dims := int(r.U16())
	sorted := r.U8() == 1
	r.U8()
	if dims != shape.Dims() {
		return core.Decl{}, fmt.Errorf("payload has %d dims, shape has %d", dims, shape.Dims())
	}
	if sorted != f.Sorted {
		return core.Decl{}, fmt.Errorf("payload sorted=%v opened as sorted=%v", sorted, f.Sorted)
	}
	return f.decl(shape)
}

// Build implements core.Format. For the unsorted baseline the payload is
// the input buffer serialized as-is and the permutation is identity
// (nil). The sorted variant sorts by linear-address order and returns
// the sort map.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	return core.Build(f.Kind(), c, shape, f.decl, f.header)
}

// Open implements core.Format. The unsorted baseline's Lookup scans
// every stored point (the O(n) per-probe cost of Table I); the sorted
// variant binary-searches.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	return core.Open(f.Kind(), payload, shape, f.parse)
}
