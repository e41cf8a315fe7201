package store

import (
	"context"
	"fmt"
	"time"

	"sparseart/internal/tensor"
)

// The chunked store's request surface. Probe targets partition by
// tile; region targets intersect the region with each materialized
// tile and run the tile-local sub-region through the tile store's read
// — so scan and auto strategies work per tile, and a region read
// touches only the tiles it covers instead of materializing every
// global cell. A tile is not a caller: the request is validated, spanned
// and slow-logged once, here, and each tile runs only its share of the
// work. Results are sorted by global row-major order, which
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
// back to global coordinates, in row-major order. A probe inside one
// tile, as a point probe always is, goes to that tile whole: there is
// nothing to partition and nothing to merge.
func (c *Chunked) queryTiles(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	root, ctx := c.obsReg().StartCtx(ctx, obsChunkedRead)
	defer root.End()
	dir := c.dir.Load()
	if req.Probe != nil {
		if e := c.probeTile(dir, req.Probe); e != nil {
			sub := QueryRequest{Probe: c.localProbe(req.Probe, e.idx), AsOf: AsOfLatest}
			return c.queryTile(ctx, e.store, e.idx, sub)
		}
	}
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
		sub := QueryRequest{Probe: t.coords, AsOf: AsOfLatest, Strategy: req.Strategy}
		if req.Region != nil {
			sub.Region = &t.clip
		}
		res, r, err := c.queryTile(ctx, t.store, t.idx, sub)
		if err != nil {
			return nil, nil, err
		}
		rep.Add(r)
		parts = append(parts, res)
	}
	t := time.Now()
	res := MergeResults(c.tiling.Shape.Dims(), parts)
	rep.Merge += time.Since(t)
	return res, rep, nil
}

// queryTile answers a tile-local request from the tile at idx. The
// tile's result is this call's to consume: it shifts to the global
// frame in place.
func (c *Chunked) queryTile(ctx context.Context, st *Store, idx []uint64, sub QueryRequest) (*Result, *ReadReport, error) {
	res, rep, err := st.read(ctx, sub)
	if err != nil {
		return nil, nil, err
	}
	flat := res.Coords.Flat()
	for i := range flat {
		flat[i] += c.tiling.Origin(idx, i%len(idx))
	}
	return res, rep, nil
}

// probeTile returns the materialized tile that holds every point of
// probe, or nil when there is none: the points span tiles, leave the
// shape, lie in a tile never written, or there are none. Its buffers
// live on the stack, so it allocates nothing.
func (c *Chunked) probeTile(dir *tileDir, probe *tensor.Coords) *tileEntry {
	n, dims := probe.Len(), probe.Dims()
	if n == 0 {
		return nil
	}
	var ib [8]uint64
	idx := ib[:]
	if dims > len(ib) {
		idx = make([]uint64, dims)
	}
	idx = idx[:dims]
	for i := 0; i < n; i++ {
		p := probe.At(i)
		if !c.tiling.Shape.Contains(p) {
			return nil
		}
		if i == 0 {
			c.tiling.Index(idx, p)
			continue
		}
		for d, v := range p {
			if v/c.tiling.Tile[d] != idx[d] {
				return nil
			}
		}
	}
	var nb [64]byte
	return dir.byName[string(c.tiling.AppendName(nb[:0], idx))]
}

// localProbe is probe in the frame of the tile at idx, which holds all
// its points.
func (c *Chunked) localProbe(probe *tensor.Coords, idx []uint64) *tensor.Coords {
	local := tensor.NewCoords(probe.Dims(), probe.Len())
	local.AppendFlat(probe.Flat())
	flat := local.Flat()
	for i := range flat {
		flat[i] -= c.tiling.Origin(idx, i%len(idx))
	}
	return local
}

// Kernel executes the additive push-down kernels across tiles: each
// tile computes its local answer and the partials sum, which is exact
// for the supported ops because tiles hold disjoint cells. SpMV and
// TTV are rejected — their operand indexing is global, and the paper's
// chunked remedy targets storage, not contraction.
func (c *Chunked) Kernel(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	if err := req.Validate(c.tiling.Shape.Dims()); err != nil {
		return nil, err
	}
	reg := c.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsKernel)
	if sp.Sampled() {
		sp.SetAttrStr("kernel", req.Op.String())
	}
	res, read, err := c.kernelAt(ctx, req)
	FinishRequestSpan(reg, ctx, sp, obsKernel, c.kind.String(), kernelCost(res, read), err)
	return res, err
}

// kernelAt runs a validated kernel on every tile the request touches
// and folds the tile answers, in tile-key order; the tiles' read
// reports come back summed, for cost attribution.
func (c *Chunked) kernelAt(ctx context.Context, req KernelRequest) (*KernelResult, *ReadReport, error) {
	dims := c.tiling.Shape.Dims()
	total := &KernelResult{Values: []float64{0}, Report: &PushReport{}}
	fold := func(_ *tilePart, r *KernelResult) { total.Values[0] += r.Values[0] }
	// Kernels over the whole store visit the tiles of the whole shape.
	region := tensor.Region{Start: make([]uint64, dims), Size: c.tiling.Shape}
	switch req.Op {
	case KernelSumAll, KernelLiveNNZ:
	case KernelSumRegion:
		region = *req.Region
	case KernelNNZPerSlice:
		var err error
		if total.Values, err = kernelValues(req.Op, c.tiling.Shape[req.Mode]); err != nil {
			return nil, nil, err
		}
		fold = func(t *tilePart, r *KernelResult) {
			origin := c.tiling.Origin(t.idx, req.Mode)
			for i, v := range r.Values {
				total.Values[origin+uint64(i)] += v
			}
		}
	default:
		return nil, nil, fmt.Errorf("store: %w: kernel %v is not supported on chunked stores", ErrBadRequest, req.Op)
	}
	read := &ReadReport{}
	for _, t := range c.tilesIn(c.dir.Load(), region) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sub := KernelRequest{Op: req.Op, Mode: req.Mode}
		if req.Op == KernelSumRegion {
			sub.Region = &t.clip
		}
		r, tr, err := t.store.kernelAt(ctx, sub)
		if err != nil {
			return nil, nil, err
		}
		fold(t, r)
		total.Report.Add(r.Report)
		read.Add(tr)
	}
	return total, read, nil
}
