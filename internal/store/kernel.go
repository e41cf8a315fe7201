package store

import (
	"context"
	"fmt"

	"sparseart/internal/tensor"
)

// KernelOp names one in-store compute kernel. The set mirrors the
// push-down kernels (pushdown.go); the numeric values are wire-stable
// — internal/wire serializes them verbatim.
type KernelOp uint8

const (
	// KernelSumAll reduces every live value to one sum.
	KernelSumAll KernelOp = iota + 1
	// KernelSumRegion reduces a rectangular region's live values.
	KernelSumRegion
	// KernelLiveNNZ counts live cells.
	KernelLiveNNZ
	// KernelNNZPerSlice counts live cells per index of one mode.
	KernelNNZPerSlice
	// KernelSpMV computes y = A·x over a 2-dim store.
	KernelSpMV
	// KernelTTV contracts the tensor with a vector along one mode.
	KernelTTV
)

// String names the op for logs and metric labels.
func (op KernelOp) String() string {
	switch op {
	case KernelSumAll:
		return "sum"
	case KernelSumRegion:
		return "sum_region"
	case KernelLiveNNZ:
		return "nnz"
	case KernelNNZPerSlice:
		return "nnz_slice"
	case KernelSpMV:
		return "spmv"
	case KernelTTV:
		return "ttv"
	default:
		return fmt.Sprintf("kernel(%d)", uint8(op))
	}
}

// KernelRequest describes one push-down kernel execution — the
// serializable companion of QueryRequest for the compute ops.
type KernelRequest struct {
	// Op selects the kernel.
	Op KernelOp
	// Region restricts KernelSumRegion; other ops reject it.
	Region *tensor.Region
	// Mode is the contraction/count mode for KernelTTV and
	// KernelNNZPerSlice.
	Mode int
	// Vec is the operand vector for KernelSpMV (x) and KernelTTV.
	Vec []float64
	// Workers bounds the push-down worker pool; < 1 means all cores.
	Workers int
}

// KernelResult carries any kernel's answer in one shape: scalar
// kernels return Values of length 1 (counts converted to float64 —
// exact to 2⁵³), vector kernels return the dense output, and TTV also
// reports the output's shape.
type KernelResult struct {
	Values []float64
	Shape  tensor.Shape
	Report *PushReport
}

// Kernel executes one KernelRequest — the only compute entry point,
// locally and over the wire. Cancellation is checked per fragment by
// the underlying push-down executor.
func (s *Store) Kernel(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	if req.Region != nil && req.Op != KernelSumRegion {
		return nil, fmt.Errorf("store: %w: kernel %v takes no region", ErrBadRequest, req.Op)
	}
	reg := s.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsKernel)
	if sp.Sampled() {
		sp.SetAttrStr("kernel", req.Op.String())
	}
	res, err := s.kernelAt(ctx, req)
	var rep *PushReport
	if res != nil {
		rep = res.Report
	}
	FinishRequestSpan(reg, ctx, sp, obsKernel, s.curKind().String(), PushCost(rep), err)
	return res, err
}

// kernelAt dispatches the kernel to its body (pushdown.go).
func (s *Store) kernelAt(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	switch req.Op {
	case KernelSumAll:
		return s.reduceKernel(ctx, req.Op, req.Workers, nil, sumCell)
	case KernelSumRegion:
		return s.sumRegion(ctx, req.Region, req.Workers)
	case KernelLiveNNZ:
		return s.reduceKernel(ctx, req.Op, req.Workers, nil, countCell)
	case KernelNNZPerSlice:
		return s.nnzPerSlice(ctx, req.Mode, req.Workers)
	case KernelSpMV:
		return s.spmv(ctx, req.Vec, req.Workers)
	case KernelTTV:
		return s.ttv(ctx, req.Mode, req.Vec, req.Workers)
	default:
		return nil, fmt.Errorf("store: %w: unknown kernel op %d", ErrBadRequest, uint8(req.Op))
	}
}
