// Package gcs implements the Generalized Compressed Sparse Row and
// Column organizations, GCSR++ and GCSC++ (§II-C/D, Algorithm 1). A
// high-dimensional tensor is remapped onto a 2D matrix whose compressed
// axis is the tensor's smallest dimension extent; the points are then
// packaged with the classic CSR/CSC scheme (row/column pointer vector
// plus minor-coordinate vector).
//
// As a level composition (core.Decl) both orientations are the 2D remap
// (core.MapGrid) over a dense major level, whose child pointers are
// ptr, and a compressed minor level, ind; they differ only in which
// axis is major. Because the remap goes through the row-major linear
// address, sorting GCSR++ keys on row-major-ordered input is nearly a
// no-op while GCSC++ must fully reshuffle — exactly the input-layout
// penalty the paper's Table III highlights.
package gcs

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

const magic = 0x31534347 // "GCS1"

// Orientation selects the compressed axis.
type Orientation uint8

const (
	// Row compresses rows: GCSR++.
	Row Orientation = 0
	// Col compresses columns: GCSC++.
	Col Orientation = 1
)

// Format is the GCSR++/GCSC++ organization.
type Format struct {
	Orient Orientation
}

// NewRow returns GCSR++.
func NewRow() Format { return Format{Orient: Row} }

// NewCol returns GCSC++.
func NewCol() Format { return Format{Orient: Col} }

func init() {
	core.Register(NewRow())
	core.Register(NewCol())
}

// Kind implements core.Format.
func (f Format) Kind() core.Kind {
	if f.Orient == Col {
		return core.GCSC
	}
	return core.GCSR
}

// geometry computes the 2D remap: the smallest extent of the shape
// becomes the compressed (major) axis, and the product of the remaining
// extents the minor axis, per Algorithm 1 line 6.
func geometry(shape tensor.Shape, orient Orientation) (rows, cols uint64, err error) {
	vol, ok := shape.Volume()
	if !ok {
		return 0, 0, fmt.Errorf("%w: shape %v", tensor.ErrOverflow, shape)
	}
	minExt, _ := shape.MinExtent()
	if orient == Row {
		return minExt, vol / minExt, nil
	}
	return vol / minExt, minExt, nil
}

func (f Format) grid(rows, cols uint64) core.Decl {
	return core.Decl{
		Map: core.MapGrid, Rows: rows, Cols: cols, ColMajor: f.Orient == Col,
		Levels: []core.Level{{Dense: true, Width: 1}, {Width: 1, Search: core.Ascending}},
	}
}

func (f Format) decl(shape tensor.Shape) (core.Decl, error) {
	rows, cols, err := geometry(shape, f.Orient)
	return f.grid(rows, cols), err
}

// header: magic u32 · orient u8 · reserved u8 · dims u16 · shape u64[d]
// · rows u64 · cols u64.
func (f Format) header(w *buf.Writer, shape tensor.Shape, d *core.Decl) {
	w.U32(magic)
	w.U8(uint8(f.Orient))
	w.U8(0)
	w.U16(uint16(shape.Dims()))
	w.RawU64s(shape)
	w.U64(d.Rows)
	w.U64(d.Cols)
}

func (f Format) parse(r *buf.Reader, shape tensor.Shape) (core.Decl, error) {
	r.Expect(magic, "GCS payload")
	orient := Orientation(r.U8())
	r.U8()
	stored := tensor.Shape(r.RawU64s(uint64(r.U16())))
	rows, cols := r.U64(), r.U64()
	if orient != f.Orient {
		return core.Decl{}, fmt.Errorf("payload orientation %d opened as %d", orient, f.Orient)
	}
	if !stored.Equal(shape) {
		return core.Decl{}, fmt.Errorf("payload shape %v does not match %v", stored, shape)
	}
	if wantRows, wantCols, err := geometry(shape, orient); err != nil || wantRows != rows || wantCols != cols {
		return core.Decl{}, fmt.Errorf("payload geometry %dx%d does not match shape %v", rows, cols, shape)
	}
	return f.grid(rows, cols), nil
}

// Build implements core.Format following GCSR++_BUILD: transform each
// point to its 2D coordinates, sort by the compressed axis, and package
// with CSR/CSC.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	return core.Build(f.Kind(), c, shape, f.decl, f.header)
}

// Open implements core.Format. Lookup follows GCSR++_READ: convert the
// probe to 2D, then scan its compressed-axis slice of ind, which is
// sorted by minor coordinate, so the scan stops early once past the
// target — the O(n / min{m}) average of Table I.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	r, err := core.Open(f.Kind(), payload, shape, f.parse)
	if err != nil {
		return nil, err
	}
	return reader{r.(*core.Index)}, nil
}

// reader is the opened index with the CSR/CSC vectors in view.
type reader struct{ *core.Index }

// Geometry exposes the 2D remap for inspection tools and tests.
func (r reader) Geometry() (rows, cols uint64) { d := r.Decl(); return d.Rows, d.Cols }

// Ptr exposes the compressed-axis pointer vector (row_ptr / col_ptr).
func (r reader) Ptr() []uint64 { return r.Pos(1) }

// Ind exposes the minor-coordinate vector (col_ind / row_ind).
func (r reader) Ind() []uint64 { return r.Crd(1) }
