// Package linalg provides sparse kernels over the storage
// organizations' readers — the downstream computations the paper's
// introduction motivates sparse storage with. Every kernel ranges over
// the readers' one walk (core.Iterator's Each — its method value is a
// range-over-func sequence), so it runs unchanged over COO, LINEAR,
// GCSR++, GCSC++, CSF, or BCOO payloads: the storage organization
// decides the iteration order and cost, not the math.
//
// Included: sparse matrix-vector multiply (SpMV), tensor-times-vector
// contraction (TTV), the matricized tensor times Khatri-Rao product
// (MTTKRP — the paper cites SpMTTKRP as the canonical sparse-tensor
// kernel), and a conjugate-gradient solver driving SpMV.
package linalg

import (
	"fmt"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// Matrix couples a 2D reader with its packed value buffer.
type Matrix struct {
	Shape  tensor.Shape
	Reader core.Reader
	Values []float64
}

// MatrixFrom packages a coordinate-form matrix in the given
// organization and wraps it for the kernels.
func MatrixFrom(kind core.Kind, shape tensor.Shape, c *tensor.Coords, values []float64) (*Matrix, error) {
	r, packed, err := build(kind, shape, c, values)
	if err != nil {
		return nil, err
	}
	return NewMatrix(shape, r, packed)
}

// TensorFrom packages a coordinate-form tensor in the given
// organization and wraps it for the kernels.
func TensorFrom(kind core.Kind, shape tensor.Shape, c *tensor.Coords, values []float64) (*Tensor, error) {
	r, packed, err := build(kind, shape, c, values)
	if err != nil {
		return nil, err
	}
	return NewTensor(shape, r, packed)
}

func build(kind core.Kind, shape tensor.Shape, c *tensor.Coords, values []float64) (core.Reader, []float64, error) {
	if c == nil {
		return nil, nil, fmt.Errorf("linalg: nil coordinate buffer")
	}
	if c.Len() != len(values) {
		return nil, nil, fmt.Errorf("linalg: %d points with %d values", c.Len(), len(values))
	}
	f, err := core.Get(kind)
	if err != nil {
		return nil, nil, err
	}
	built, err := f.Build(c, shape)
	if err != nil {
		return nil, nil, err
	}
	r, err := f.Open(built.Payload, shape)
	if err != nil {
		return nil, nil, err
	}
	return r, tensor.ApplyPermValues(values, built.Perm), nil
}

// NewMatrix validates and wraps a 2D tensor for the kernels.
func NewMatrix(shape tensor.Shape, r core.Reader, values []float64) (*Matrix, error) {
	if shape.Dims() != 2 {
		return nil, fmt.Errorf("linalg: matrix needs 2 dims, got %d", shape.Dims())
	}
	if r.NNZ() != len(values) {
		return nil, fmt.Errorf("linalg: %d values for %d points", len(values), r.NNZ())
	}
	if _, ok := r.(core.Iterator); !ok {
		return nil, fmt.Errorf("linalg: reader cannot iterate")
	}
	return &Matrix{Shape: shape, Reader: r, Values: values}, nil
}

// SpMV computes y = A·x. x must have length Shape[1]; y is allocated
// with length Shape[0].
func (m *Matrix) SpMV(x []float64) ([]float64, error) {
	if uint64(len(x)) != m.Shape[1] {
		return nil, fmt.Errorf("linalg: x has %d entries for %d columns", len(x), m.Shape[1])
	}
	y := make([]float64, m.Shape[0])
	for p, slot := range m.Reader.(core.Iterator).Each {
		y[p[0]] += m.Values[slot] * x[p[1]]
	}
	return y, nil
}

// SpMVT computes y = Aᵀ·x. x must have length Shape[0]; y has length
// Shape[1].
func (m *Matrix) SpMVT(x []float64) ([]float64, error) {
	if uint64(len(x)) != m.Shape[0] {
		return nil, fmt.Errorf("linalg: x has %d entries for %d rows", len(x), m.Shape[0])
	}
	y := make([]float64, m.Shape[1])
	for p, slot := range m.Reader.(core.Iterator).Each {
		y[p[1]] += m.Values[slot] * x[p[0]]
	}
	return y, nil
}

// Tensor couples a reader of any rank with its packed values.
type Tensor struct {
	Shape  tensor.Shape
	Reader core.Reader
	Values []float64
}

// NewTensor validates and wraps a sparse tensor for the kernels.
func NewTensor(shape tensor.Shape, r core.Reader, values []float64) (*Tensor, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if r.NNZ() != len(values) {
		return nil, fmt.Errorf("linalg: %d values for %d points", len(values), r.NNZ())
	}
	if _, ok := r.(core.Iterator); !ok {
		return nil, fmt.Errorf("linalg: reader cannot iterate")
	}
	return &Tensor{Shape: shape, Reader: r, Values: values}, nil
}

// TTV contracts the tensor with a vector along one mode:
// Y[i_0,…,î_mode,…] = Σ_k T[…, k, …]·v[k]. The result is returned as a
// dense buffer in row-major order over the remaining modes, with its
// shape.
func (t *Tensor) TTV(mode int, v []float64) ([]float64, tensor.Shape, error) {
	d := t.Shape.Dims()
	if mode < 0 || mode >= d {
		return nil, nil, fmt.Errorf("linalg: mode %d of %d-dim tensor", mode, d)
	}
	if uint64(len(v)) != t.Shape[mode] {
		return nil, nil, fmt.Errorf("linalg: vector has %d entries for extent %d", len(v), t.Shape[mode])
	}
	outShape := make(tensor.Shape, 0, d-1)
	for i, m := range t.Shape {
		if i != mode {
			outShape = append(outShape, m)
		}
	}
	if len(outShape) == 0 {
		// Rank-1 contraction: a scalar, returned as a 1-cell result.
		outShape = tensor.Shape{1}
	}
	lin, err := tensor.NewLinearizer(outShape, tensor.RowMajor)
	if err != nil {
		return nil, nil, err
	}
	vol, _ := outShape.Volume()
	out := make([]float64, vol)
	q := make([]uint64, len(outShape))
	for p, slot := range t.Reader.(core.Iterator).Each {
		if d == 1 {
			out[0] += t.Values[slot] * v[p[0]]
			continue
		}
		k := 0
		for i, c := range p {
			if i == mode {
				continue
			}
			q[k] = c
			k++
		}
		out[lin.Linearize(q)] += t.Values[slot] * v[p[mode]]
	}
	return out, outShape, nil
}

// Dense is a small dense row-major matrix used as a factor in MTTKRP.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zeroed dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// MTTKRP computes the matricized-tensor times Khatri-Rao product along
// the given mode for a 3-way tensor: for mode 0,
//
//	M[i, r] = Σ_{j,k} T[i,j,k] · B[j,r] · C[k,r]
//
// where factors holds the factor matrices of the two non-target modes
// in ascending mode order. This is the kernel of CP decomposition and
// the paper's canonical example of a sparse-tensor workload
// (SpMTTKRP).
func (t *Tensor) MTTKRP(mode int, factors [2]*Dense) (*Dense, error) {
	d := t.Shape.Dims()
	if d != 3 {
		return nil, fmt.Errorf("linalg: MTTKRP implemented for 3-way tensors, got %d-way", d)
	}
	if mode < 0 || mode > 2 {
		return nil, fmt.Errorf("linalg: mode %d", mode)
	}
	others := [][2]int{0: {1, 2}, 1: {0, 2}, 2: {0, 1}}[mode]
	rank := factors[0].Cols
	if factors[1].Cols != rank {
		return nil, fmt.Errorf("linalg: factor ranks differ: %d vs %d", rank, factors[1].Cols)
	}
	for fi, m := range others {
		if uint64(factors[fi].Rows) != t.Shape[m] {
			return nil, fmt.Errorf("linalg: factor %d has %d rows for extent %d",
				fi, factors[fi].Rows, t.Shape[m])
		}
	}
	out := NewDense(int(t.Shape[mode]), rank)
	for p, slot := range t.Reader.(core.Iterator).Each {
		v := t.Values[slot]
		i := int(p[mode])
		j, k := int(p[others[0]]), int(p[others[1]])
		for r := 0; r < rank; r++ {
			out.Data[i*rank+r] += v * factors[0].At(j, r) * factors[1].At(k, r)
		}
	}
	return out, nil
}
