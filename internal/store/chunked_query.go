package store

import (
	"context"
	"fmt"
	"time"

	"sparseart/internal/tensor"
)

// The chunked store's request surface. Probe targets partition by
// tile; region targets intersect the region with each materialized
// tile and run the tile-local sub-region through the tile store's Query
// — so scan and auto strategies work per tile, and a region read
// touches only the tiles it covers instead of materializing every
// global cell. Results are sorted by global row-major order, which
// equals linear-address order: byte-identical to the flat store's
// merge, and the order the router's scatter-gather reproduces across
// shard processes.

// Query answers one QueryRequest against the chunked store. AsOf is
// rejected: fragment counts are per tile, so a global version number
// is not meaningful here.
func (c *Chunked) Query(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	if err := req.Validate(c.tiling.Shape.Dims()); err != nil {
		return nil, nil, err
	}
	if req.AsOf != AsOfLatest {
		return nil, nil, fmt.Errorf("store: %w: as-of reads are not supported on chunked stores", ErrBadRequest)
	}
	reg := c.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsQuery)
	if sp.Sampled() {
		sp.SetAttrStr("strategy", req.Strategy.String())
	}
	res, rep, err := c.queryTiles(ctx, req)
	FinishRequestSpan(reg, ctx, sp, obsQuery, c.kind.String(), ReadCost(rep), err)
	return res, rep, err
}

// queryTiles answers the request tile by tile — each tile's share as a
// tile-local query against its store — and merges the answers, taken
// back to global coordinates, in row-major order.
func (c *Chunked) queryTiles(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	root, ctx := c.obsReg().StartCtx(ctx, obsChunkedRead)
	defer root.End()
	dir := c.dir.Load()
	var tiles []*tilePart
	if req.Region != nil {
		tiles = c.tilesIn(dir, *req.Region)
	} else {
		tiles = c.partition(dir, req.Probe, nil)
	}
	rep := &ReadReport{}
	parts := make([]*Result, 0, len(tiles))
	for _, t := range tiles {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sub := QueryRequest{Probe: t.coords, AsOf: AsOfLatest, Strategy: req.Strategy, Workers: req.Workers}
		if req.Region != nil {
			sub.Region = &t.clip
		}
		res, r, err := t.store.Query(ctx, sub)
		if err != nil {
			return nil, nil, err
		}
		rep.Add(r)
		// The tile's result is this call's to consume: shift it to the
		// global frame in place.
		flat := res.Coords.Flat()
		for i := range flat {
			d := i % len(t.idx)
			flat[i] += c.tiling.Origin(t.idx, d)
		}
		parts = append(parts, res)
	}
	t := time.Now()
	res := MergeResults(c.tiling.Shape.Dims(), parts)
	rep.Merge += time.Since(t)
	return res, rep, nil
}

// Kernel executes the additive push-down kernels across tiles: each
// tile computes its local answer and the partials sum, which is exact
// for the supported ops because tiles hold disjoint cells. SpMV and
// TTV are rejected — their operand indexing is global, and the paper's
// chunked remedy targets storage, not contraction.
func (c *Chunked) Kernel(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	reg := c.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsKernel)
	if sp.Sampled() {
		sp.SetAttrStr("kernel", req.Op.String())
	}
	res, err := c.kernelAt(ctx, req)
	var rep *PushReport
	if res != nil {
		rep = res.Report
	}
	FinishRequestSpan(reg, ctx, sp, obsKernel, c.kind.String(), PushCost(rep), err)
	return res, err
}

// kernelAt runs the kernel on every tile the request touches and folds
// the tile answers, in tile-key order.
func (c *Chunked) kernelAt(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	dims := c.tiling.Shape.Dims()
	total := &KernelResult{Values: []float64{0}, Report: &PushReport{}}
	fold := func(_ *tilePart, r *KernelResult) { total.Values[0] += r.Values[0] }
	// Kernels over the whole store visit the tiles of the whole shape.
	region := tensor.Region{Start: make([]uint64, dims), Size: c.tiling.Shape}
	switch req.Op {
	case KernelSumAll, KernelLiveNNZ:
	case KernelSumRegion:
		if req.Region == nil {
			return nil, fmt.Errorf("store: %w: kernel %v needs a region", ErrBadRequest, req.Op)
		}
		if req.Region.Dims() != dims {
			return nil, fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, req.Region.Dims(), dims)
		}
		region = *req.Region
	case KernelNNZPerSlice:
		if req.Mode < 0 || req.Mode >= dims {
			return nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, req.Mode, dims)
		}
		total.Values = make([]float64, c.tiling.Shape[req.Mode])
		fold = func(t *tilePart, r *KernelResult) {
			origin := c.tiling.Origin(t.idx, req.Mode)
			for i, v := range r.Values {
				total.Values[origin+uint64(i)] += v
			}
		}
	default:
		return nil, fmt.Errorf("store: %w: kernel %v is not supported on chunked stores", ErrBadRequest, req.Op)
	}
	for _, t := range c.tilesIn(c.dir.Load(), region) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sub := KernelRequest{Op: req.Op, Mode: req.Mode, Workers: req.Workers}
		if req.Op == KernelSumRegion {
			sub.Region = &t.clip
		}
		r, err := t.store.Kernel(ctx, sub)
		if err != nil {
			return nil, err
		}
		fold(t, r)
		total.Report.Add(r.Report)
	}
	return total, nil
}
