package store

import (
	"context"
	"fmt"

	"sparseart/internal/tensor"
)

// KernelOp names one in-store compute kernel. The set mirrors the
// kernel folds (pushdown.go); the numeric values are wire-stable
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

// maxKernelValues caps a kernel's dense result. 2²⁷ float64s are the
// 1 GiB one wire.MaxFrame reply can carry, so a larger answer could
// never be sent: it is refused with ErrBadRequest before it is
// allocated.
const maxKernelValues = 1 << 27

// kernelValues allocates a kernel's dense result of n values, or
// refuses it past maxKernelValues.
func kernelValues(op KernelOp, n uint64) ([]float64, error) {
	if n > maxKernelValues {
		return nil, fmt.Errorf("store: %w: kernel %v would return %d values (at most %d)", ErrBadRequest, op, n, maxKernelValues)
	}
	return make([]float64, n), nil
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
	// Workers bounds the fragment worker pool exactly as
	// QueryRequest.Workers does: 0 or 1 reads fragments serially, n > 1
	// uses n workers, negative uses every core. The answer does not
	// depend on it.
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
// the READ loop underneath.
func (s *Store) Kernel(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	if req.Region != nil && req.Op != KernelSumRegion {
		return nil, fmt.Errorf("store: %w: kernel %v takes no region", ErrBadRequest, req.Op)
	}
	reg := s.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsKernel)
	if sp.Sampled() {
		sp.SetAttrStr("kernel", req.Op.String())
	}
	res, read, err := s.kernelAt(ctx, req)
	var cost func() map[string]int64
	if err == nil {
		// The push report's counts plus what the read underneath fetched.
		cost = func() map[string]int64 {
			m := PushCost(res.Report)()
			m["cache_hits"] = int64(read.CacheHits)
			m["cache_misses"] = int64(read.CacheMisses)
			m["bytes_read"] = read.BytesRead
			return m
		}
	}
	FinishRequestSpan(reg, ctx, sp, obsKernel, s.kind.String(), cost, err)
	return res, err
}

// kernelAt picks the kernel's fold (pushdown.go) and runs it over the
// live cells; the read's report comes back for cost attribution.
func (s *Store) kernelAt(ctx context.Context, req KernelRequest) (*KernelResult, *ReadReport, error) {
	res := &KernelResult{Values: []float64{0}}
	sum := func(_ []uint64, val float64) bool { res.Values[0] += val; return true }
	var (
		fold emitFunc
		err  error
	)
	switch req.Op {
	case KernelSumAll:
		fold = sum
	case KernelSumRegion:
		fold, err = sum, s.checkKernelRegion(req.Region)
	case KernelLiveNNZ: // a count in a float64 — exact to 2⁵³
		fold = func([]uint64, float64) bool { res.Values[0]++; return true }
	case KernelNNZPerSlice:
		fold, err = s.nnzPerSliceFold(res, req.Mode)
	case KernelSpMV:
		fold, err = s.spmvFold(res, req.Vec)
	case KernelTTV:
		fold, err = s.ttvFold(res, req.Mode, req.Vec)
	default:
		err = fmt.Errorf("store: %w: unknown kernel op %d", ErrBadRequest, uint8(req.Op))
	}
	if err != nil {
		return nil, nil, err
	}
	var read *ReadReport
	res.Report, read, err = s.foldLive(ctx, req.Op.String(), req.Region, req.Workers, fold)
	if err != nil {
		return nil, nil, err
	}
	return res, read, nil
}
