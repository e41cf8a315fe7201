// Package gcs implements the Generalized Compressed Sparse Row and
// Column organizations, GCSR++ and GCSC++ (§II-C/D, Algorithm 1). A
// high-dimensional tensor is remapped onto a 2D matrix whose compressed
// axis is the tensor's smallest dimension extent; the points are then
// packaged with the classic CSR/CSC scheme (row/column pointer vector
// plus minor-coordinate vector).
//
// Both orientations share one engine, differing only in which axis is
// compressed and which 2D order the points are sorted into. Because the
// remap goes through the row-major linear address, sorting GCSR++ keys
// on row-major-ordered input is nearly a no-op while GCSC++ must fully
// reshuffle — exactly the input-layout penalty the paper's Table III
// highlights.
package gcs

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
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
	Opts   core.Options
}

// NewRow returns GCSR++ with the paper's serial options.
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

// WithOptions implements core.OptionSetter.
func (f Format) WithOptions(o core.Options) core.Format {
	f.Opts = o
	return f
}

// geometry computes the 2D remap: the smallest extent of the shape
// becomes the compressed (major) axis, and the product of the remaining
// extents the minor axis, per Algorithm 1 line 6.
func geometry(shape tensor.Shape, orient Orientation) (rows, cols uint64, err error) {
	vol, ok := shape.Volume()
	if !ok {
		return 0, 0, fmt.Errorf("gcs: %w: shape %v", tensor.ErrOverflow, shape)
	}
	minExt, _ := shape.MinExtent()
	if orient == Row {
		return minExt, vol / minExt, nil
	}
	return vol / minExt, minExt, nil
}

// to2D converts a row-major linear address into 2D coordinates of the
// (rows × cols) matrix — the reverse row-major transform of Algorithm 1
// line 9.
func to2D(l, cols uint64) (r, c uint64) { return l / cols, l % cols }

// Build implements core.Format following GCSR++_BUILD: transform each
// point to its 2D coordinates, sort by the compressed axis, and package
// with CSR/CSC.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	defer obs.Time("core.build", "kind", f.Kind().String())()
	obs.Count("core.build.points", int64(c.Len()), "kind", f.Kind().String())
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if c.Dims() != shape.Dims() {
		return nil, fmt.Errorf("gcs: %d-dim coords for %d-dim shape", c.Dims(), shape.Dims())
	}
	rows, cols, err := geometry(shape, f.Orient)
	if err != nil {
		return nil, err
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return nil, fmt.Errorf("gcs: %w", err)
	}
	n := c.Len()

	// Transform pass (one of the two O(n) passes in Table I's build
	// term): compute each point's 2D coordinates, held as a single
	// sort key in major-then-minor order.
	major := make([]uint64, n) // compressed-axis coordinate
	minor := make([]uint64, n)
	keys := make([]uint64, n)
	var majorExt, minorExt uint64
	if f.Orient == Row {
		majorExt, minorExt = rows, cols
	} else {
		majorExt, minorExt = cols, rows
	}
	for i := 0; i < n; i++ {
		p := c.At(i)
		if !shape.Contains(p) {
			return nil, fmt.Errorf("gcs: point %v outside shape %v", p, shape)
		}
		l := lin.Linearize(p)
		r2, c2 := to2D(l, cols)
		if f.Orient == Row {
			major[i], minor[i] = r2, c2
		} else {
			major[i], minor[i] = c2, r2
		}
		keys[i] = major[i]*minorExt + minor[i]
	}

	// Sort by the compressed axis (Algorithm 1 line 12).
	order := psort.SortPermByKey(n, f.Opts.Parallelism, func(i int) uint64 { return keys[i] })

	// Package with CSR/CSC (line 13): ptr has one entry per major
	// index plus the trailing sentinel, ind holds the minor coordinate
	// of each point in sorted order.
	ptr := make([]uint64, majorExt+1)
	ind := make([]uint64, n)
	for slot, i := range order {
		ptr[major[i]+1]++
		ind[slot] = minor[i]
	}
	for r := uint64(1); r <= majorExt; r++ {
		ptr[r] += ptr[r-1]
	}

	w := buf.NewWriter(32 + 8*(len(ptr)+len(ind)+len(shape)))
	w.U32(magic)
	w.U8(uint8(f.Orient))
	w.U8(0) // reserved
	w.U16(uint16(shape.Dims()))
	w.RawU64s(shape)
	w.U64(rows)
	w.U64(cols)
	w.U64(uint64(n))
	w.RawU64s(ptr)
	w.RawU64s(ind)
	return &core.BuildResult{Payload: w.Bytes(), Perm: tensor.InvertPerm(order)}, nil
}

// Open implements core.Format.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	r := buf.NewReader(payload)
	r.Expect(magic, "GCS payload")
	orient := Orientation(r.U8())
	r.U8()
	dims := int(r.U16())
	stored := tensor.Shape(r.RawU64s(uint64(dims)))
	rows := r.U64()
	cols := r.U64()
	n := r.U64()
	majorExt := rows
	if orient == Col {
		majorExt = cols
	}
	ptr := r.RawU64s(majorExt + 1)
	ind := r.RawU64s(n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("gcs: %w", err)
	}
	if orient != f.Orient {
		return nil, fmt.Errorf("gcs: payload orientation %d opened as %d", orient, f.Orient)
	}
	if !stored.Equal(shape) {
		return nil, fmt.Errorf("gcs: payload shape %v does not match %v", stored, shape)
	}
	wantRows, wantCols, err := geometry(shape, orient)
	if err != nil || wantRows != rows || wantCols != cols {
		return nil, fmt.Errorf("gcs: payload geometry %dx%d does not match shape %v", rows, cols, shape)
	}
	// Structural validation so corrupt payloads fail here instead of
	// panicking a reader.
	minorExt := cols
	if orient == Col {
		minorExt = rows
	}
	if ptr[0] != 0 || ptr[len(ptr)-1] != n {
		return nil, fmt.Errorf("gcs: corrupt pointer vector bounds")
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] || ptr[i] > n {
			return nil, fmt.Errorf("gcs: pointer vector not monotone at %d", i)
		}
	}
	for i, mn := range ind {
		if mn >= minorExt {
			return nil, fmt.Errorf("gcs: minor coordinate %d out of range at %d", mn, i)
		}
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return nil, fmt.Errorf("gcs: %w", err)
	}
	return &reader{
		orient: orient, lin: lin, rows: rows, cols: cols, ptr: ptr, ind: ind,
		probes: obs.NewSampled(obs.Global().Counter("core.probe", "kind", f.Kind().String()), obs.DefaultSamplePeriod),
	}, nil
}

type reader struct {
	orient     Orientation
	lin        *tensor.Linearizer
	rows, cols uint64
	ptr        []uint64 // majorExt+1 offsets into ind
	ind        []uint64 // minor coordinate per point, sorted order
	// probes counts Lookup calls, sampled: the shared core.probe
	// counter is touched once per flush period, not per point.
	probes *obs.SampledCounter
}

// NNZ implements core.Reader.
func (r *reader) NNZ() int { return len(r.ind) }

// IndexWords implements core.PayloadSizer: n minor coordinates plus the
// pointer vector — the O(n + min{m_1..m_d}) of Table I.
func (r *reader) IndexWords() int { return len(r.ind) + len(r.ptr) }

// Lookup implements core.Reader following GCSR++_READ: convert the probe
// to 2D, then scan its compressed-axis slice of ind. The slice is sorted
// by minor coordinate, so the scan stops early once past the target,
// preserving the O(n / min{m}) average of Table I.
func (r *reader) Lookup(p []uint64) (int, bool) {
	r.probes.Inc()
	if !r.lin.Shape().Contains(p) {
		return 0, false
	}
	l := r.lin.Linearize(p)
	r2, c2 := to2D(l, r.cols)
	var mj, mn uint64
	if r.orient == Row {
		mj, mn = r2, c2
	} else {
		mj, mn = c2, r2
	}
	lo, hi := r.ptr[mj], r.ptr[mj+1]
	for i := lo; i < hi; i++ {
		if r.ind[i] == mn {
			return int(i), true
		}
		if r.ind[i] > mn {
			break
		}
	}
	return 0, false
}

// Each implements core.Iterator, visiting points in packed (sorted)
// order by walking the pointer vector. The point slice is reused;
// callbacks must not retain it.
func (r *reader) Each(visit func(p []uint64, slot int) bool) {
	p := make([]uint64, r.lin.Shape().Dims())
	majorExt := uint64(len(r.ptr)) - 1
	for mj := uint64(0); mj < majorExt; mj++ {
		for k := r.ptr[mj]; k < r.ptr[mj+1]; k++ {
			mn := r.ind[k]
			var r2, c2 uint64
			if r.orient == Row {
				r2, c2 = mj, mn
			} else {
				r2, c2 = mn, mj
			}
			r.lin.Delinearize(r2*r.cols+c2, p)
			if !visit(p, int(k)) {
				return
			}
		}
	}
}

// Geometry exposes the 2D remap for inspection tools and tests.
func (r *reader) Geometry() (rows, cols uint64) { return r.rows, r.cols }

// Ptr exposes the compressed-axis pointer vector (row_ptr / col_ptr).
func (r *reader) Ptr() []uint64 { return r.ptr }

// Ind exposes the minor-coordinate vector (col_ind / row_ind).
func (r *reader) Ind() []uint64 { return r.ind }

var (
	_ core.Format       = Format{}
	_ core.Reader       = (*reader)(nil)
	_ core.PayloadSizer = (*reader)(nil)
	_ core.Iterator     = (*reader)(nil)
)
