// Package tensor provides the coordinate, shape, and linear-address
// algebra shared by every sparse-tensor organization in this module.
//
// Coordinates are unsigned 64-bit integers, matching the paper's choice
// of "unsigned long long int" for synthetic-dataset coordinates. A point
// in a d-dimensional tensor is a slice of d coordinates. The package
// offers overflow-checked row-major and column-major linearization (the
// LINEAR organization of §II-B is built on it), bounding boxes and
// rectangular regions (used by fragment overlap search in Algorithm 3),
// and permutation helpers matching the "map" vector that the paper's
// BUILD functions return.
package tensor

import (
	"errors"
	"fmt"
	"math/bits"
)

// Shape is the extent of a tensor in each dimension.
type Shape []uint64

// ErrOverflow reports that a linear address or volume does not fit in a
// uint64. The paper (§II-B) names this as the principal risk of the
// LINEAR organization; callers are expected to fall back to block
// decomposition (see internal/store.Store) when they hit it.
var ErrOverflow = errors.New("tensor: linear address overflows uint64")

// ErrShape reports an invalid shape (no dimensions, or a zero extent).
var ErrShape = errors.New("tensor: invalid shape")

// Dims returns the number of dimensions.
func (s Shape) Dims() int { return len(s) }

// Validate checks that the shape has at least one dimension and that no
// extent is zero.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("%w: no dimensions", ErrShape)
	}
	for i, m := range s {
		if m == 0 {
			return fmt.Errorf("%w: dimension %d has zero extent", ErrShape, i)
		}
	}
	return nil
}

// Volume returns the total number of cells. ok is false when the product
// overflows uint64.
func (s Shape) Volume() (v uint64, ok bool) {
	v = 1
	for _, m := range s {
		hi, lo := bits.Mul64(v, m)
		if hi != 0 {
			return 0, false
		}
		v = lo
	}
	return v, true
}

// Contains reports whether point p lies inside the shape. It returns
// false when p has the wrong number of dimensions.
func (s Shape) Contains(p []uint64) bool {
	if len(p) != len(s) {
		return false
	}
	for i, c := range p {
		if c >= s[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two shapes have identical dimensions and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// MinExtent returns the smallest extent and its dimension index. The
// GCSR++/GCSC++ organizations (§II-C/D) select this dimension as the
// compressed axis of their 2D remapping.
func (s Shape) MinExtent() (extent uint64, dim int) {
	extent, dim = s[0], 0
	for i, m := range s {
		if m < extent {
			extent, dim = m, i
		}
	}
	return extent, dim
}

// String renders the shape as "m1 x m2 x ... x md".
func (s Shape) String() string {
	out := ""
	for i, m := range s {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprintf("%d", m)
	}
	return out
}

// Order selects a linearization convention.
type Order uint8

const (
	// RowMajor varies the last dimension fastest; it is the paper's
	// default (§II-B).
	RowMajor Order = iota
	// ColMajor varies the first dimension fastest.
	ColMajor
)

// Linearizer converts between d-dimensional coordinates and linear
// addresses for a fixed shape. Construction fails with ErrOverflow when
// the shape's volume does not fit in uint64, so a successfully built
// Linearizer can never wrap.
type Linearizer struct {
	shape   Shape
	strides []uint64
	order   Order
}

// NewLinearizer builds a Linearizer for shape using the given order.
func NewLinearizer(shape Shape, order Order) (*Linearizer, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if _, ok := shape.Volume(); !ok {
		return nil, fmt.Errorf("%w: shape %v", ErrOverflow, shape)
	}
	d := len(shape)
	strides := make([]uint64, d)
	switch order {
	case RowMajor:
		strides[d-1] = 1
		for i := d - 2; i >= 0; i-- {
			strides[i] = strides[i+1] * shape[i+1]
		}
	case ColMajor:
		strides[0] = 1
		for i := 1; i < d; i++ {
			strides[i] = strides[i-1] * shape[i-1]
		}
	default:
		return nil, fmt.Errorf("tensor: unknown order %d", order)
	}
	return &Linearizer{shape: shape.Clone(), strides: strides, order: order}, nil
}

// Shape returns the shape the linearizer was built for.
func (l *Linearizer) Shape() Shape { return l.shape }

// Order returns the linearization convention.
func (l *Linearizer) Order() Order { return l.order }

// Linearize computes the linear address of p. The point must lie inside
// the shape; this is the caller's contract (hot path, no error return).
func (l *Linearizer) Linearize(p []uint64) uint64 {
	var addr uint64
	for i, c := range p {
		addr += c * l.strides[i]
	}
	return addr
}

// Delinearize writes the coordinates of addr into out, which must have
// length equal to the number of dimensions.
func (l *Linearizer) Delinearize(addr uint64, out []uint64) {
	d := len(l.shape)
	switch l.order {
	case RowMajor:
		for i := 0; i < d; i++ {
			out[i] = addr / l.strides[i]
			addr %= l.strides[i]
		}
	case ColMajor:
		for i := d - 1; i >= 0; i-- {
			out[i] = addr / l.strides[i]
			addr %= l.strides[i]
		}
	}
}

// LinearizeChecked is Linearize with a bounds check, for callers handling
// untrusted points.
func (l *Linearizer) LinearizeChecked(p []uint64) (uint64, error) {
	if !l.shape.Contains(p) {
		return 0, fmt.Errorf("tensor: point %v outside shape %v", p, l.shape)
	}
	return l.Linearize(p), nil
}
