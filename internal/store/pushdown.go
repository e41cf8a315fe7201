package store

import (
	"context"
	"fmt"

	"sparseart/internal/tensor"
)

// Compute push-down: kernels and maintenance passes that run WHERE the
// data lives instead of exporting it first. Every operation here is a
// READ (Store.readView) with a scan plan — every stored point, or the
// stored points inside a region — whose live cells go to a fold instead
// of a Result: mergeHits resolves overwrites and tombstones exactly as
// it does for a Query and hands each live cell, once, in ascending
// linear address, to the kernel's accumulator. No Result is built and
// nothing is exported; the fold runs on the calling goroutine, so an
// answer is a pure function of the pinned snapshot — bit-identical
// whatever Workers says, float data included.
//
// Memory is that of any read: O(hits in the target) — one 24-byte hit
// per stored cell the scan reaches, live or not — held until the merge
// has run. A whole-store kernel or ScanLive therefore holds as much as
// ExportAll and compaction do; on a Chunked store a tile bounds it.

// PushReport summarizes one push-down execution, in the read's own
// accounting.
type PushReport struct {
	// Fragments counts the data fragments fetched and scanned.
	Fragments int
	// Skipped counts bounding-box candidates the coordinate filters
	// dismissed before any fetch.
	Skipped int
	// Cells counts live cells delivered to the consumer.
	Cells int64
	// Shadowed counts stored cells a later write of the same point (in
	// a newer fragment, or later in the same one) overwrote.
	Shadowed int64
	// Dead counts cells whose newest write lies under a later tombstone.
	Dead int64
	// Epoch is the manifest epoch the execution pinned.
	Epoch uint64
}

// Add folds another execution's report into r: a chunked store's
// tile, a router's shard. Epochs sum like the counts (a change
// counter, as Chunked.Epoch is).
func (r *PushReport) Add(o *PushReport) {
	r.Fragments += o.Fragments
	r.Skipped += o.Skipped
	r.Cells += o.Cells
	r.Shadowed += o.Shadowed
	r.Dead += o.Dead
	r.Epoch += o.Epoch
}

// foldLive is the body of every kernel and of ScanLive: one scan-plan
// READ over a pinned view whose live cells (of region, when non-nil)
// go to emit. The push report is that read's accounting; the read's
// own report comes back beside it for cost attribution. Cancellation
// is checked before each fragment, as for any read.
func (s *Store) foldLive(ctx context.Context, op string, region *tensor.Region, workers int, emit emitFunc) (*PushReport, *ReadReport, error) {
	v := s.acquireView()
	defer v.release()
	_, rep, live, err := s.readView(ctx, v, len(v.frags), s.scanPlan(region), workers, emit)
	if err != nil {
		return nil, nil, err
	}
	push := &PushReport{
		Fragments: rep.Fragments,
		Skipped:   rep.FilterSkipped,
		Cells:     live.cells,
		Shadowed:  live.overwritten,
		Dead:      live.dead,
		Epoch:     rep.Epoch,
	}
	reg := s.obsReg()
	kind := s.curKind().String()
	reg.Counter("store.pushdown.count", "kind", kind, "op", op).Inc()
	reg.Counter("store.pushdown.fragments", "kind", kind, "op", op).Add(int64(push.Fragments))
	reg.Counter("store.pushdown.skipped", "kind", kind, "op", op).Add(int64(push.Skipped))
	reg.Counter("store.pushdown.cells", "kind", kind, "op", op).Add(push.Cells)
	reg.Counter("store.pushdown.shadowed", "kind", kind, "op", op).Add(push.Shadowed)
	reg.Counter("store.pushdown.dead", "kind", kind, "op", op).Add(push.Dead)
	return push, rep, nil
}

// ScanLive hands every live cell of the store (or of a region, when
// non-nil) to visit in ascending linear address — deterministic, so
// Convert builds its chunks on it. Returning false from visit stops the
// walk early (the report then covers the visited prefix). A deadline
// stops the scan at a fragment boundary, before any cell is visited.
func (s *Store) ScanLive(ctx context.Context, region *tensor.Region, visit func(p []uint64, val float64) bool) (*PushReport, error) {
	rep, _, err := s.foldLive(ctx, "scan", region, 0, visit)
	return rep, err
}

// The kernel folds kernelAt (kernel.go) hands to foldLive. Each
// validates its operands, sizes res.Values, and returns the function
// that accumulates one live cell into it.

// spmvFold computes y = A·x over the stored 2D tensor without exporting
// it: y[i] += A[i,j]·x[j] per live cell. x must have length Shape[1]; y
// has length Shape[0].
func (s *Store) spmvFold(res *KernelResult, x []float64) (emitFunc, error) {
	if s.shape.Dims() != 2 {
		return nil, fmt.Errorf("store: %w: SpMV needs a 2-dim store, got %d dims", ErrBadRequest, s.shape.Dims())
	}
	if uint64(len(x)) != s.shape[1] {
		return nil, fmt.Errorf("store: %w: x has %d entries for %d columns", ErrShapeMismatch, len(x), s.shape[1])
	}
	y := make([]float64, s.shape[0])
	res.Values = y
	return func(p []uint64, val float64) bool { y[p[0]] += val * x[p[1]]; return true }, nil
}

// nnzPerSliceFold counts live cells per index of one mode: out[k] is
// the number of live cells with coordinate k along that mode — the
// slice histogram load balancers and format advisors want.
func (s *Store) nnzPerSliceFold(res *KernelResult, mode int) (emitFunc, error) {
	if mode < 0 || mode >= s.shape.Dims() {
		return nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, mode, s.shape.Dims())
	}
	out := make([]float64, s.shape[mode])
	res.Values = out
	return func(p []uint64, _ float64) bool { out[p[mode]]++; return true }, nil
}

// checkKernelRegion validates KernelSumRegion's window against the
// store's shape.
func (s *Store) checkKernelRegion(region *tensor.Region) error {
	if region == nil {
		return fmt.Errorf("store: %w: kernel %v needs a region", ErrBadRequest, KernelSumRegion)
	}
	if region.Dims() != s.shape.Dims() {
		return fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, region.Dims(), s.shape.Dims())
	}
	_, err := tensor.NewRegion(s.shape, region.Start, region.Size)
	return err
}

// ttvFold contracts the stored tensor with a vector along one mode,
// Y[i_0,…,î_mode,…] = Σ_k T[…,k,…]·v[k], leaving the dense result in
// row-major order over the remaining modes together with its shape —
// the in-store counterpart of linalg.Tensor.TTV.
func (s *Store) ttvFold(res *KernelResult, mode int, vec []float64) (emitFunc, error) {
	d := s.shape.Dims()
	if mode < 0 || mode >= d {
		return nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, mode, d)
	}
	if uint64(len(vec)) != s.shape[mode] {
		return nil, fmt.Errorf("store: %w: vector has %d entries for extent %d", ErrShapeMismatch, len(vec), s.shape[mode])
	}
	outShape := make(tensor.Shape, 0, d-1)
	for i, m := range s.shape {
		if i != mode {
			outShape = append(outShape, m)
		}
	}
	if len(outShape) == 0 {
		outShape = tensor.Shape{1}
	}
	lin, err := tensor.NewLinearizer(outShape, tensor.RowMajor)
	if err != nil {
		return nil, err
	}
	vol, _ := outShape.Volume()
	out := make([]float64, vol)
	res.Values, res.Shape = out, outShape
	q := make([]uint64, len(outShape)) // coordinate scratch: the fold allocates nothing
	return func(p []uint64, val float64) bool {
		if d == 1 {
			out[0] += val * vec[p[0]]
			return true
		}
		k := 0
		for i, c := range p {
			if i == mode {
				continue
			}
			q[k] = c
			k++
		}
		out[lin.Linearize(q)] += val * vec[p[mode]]
		return true
	}, nil
}
