package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// This file is the store's request surface, the only way to read: a
// read varies in which target it takes (probe list or region) and
// which version bound applies; a region read is planned per fragment
// (auto.go). QueryRequest carries those axes as one
// value — the struct the wire protocol (internal/wire) carries — and
// Query threads a context.Context through each tile's fragment loop
// (tile.read) so a server-side deadline stops in-store work instead
// of letting it run to completion.

// Typed request errors. They satisfy errors.Is through fmt.Errorf
// wrapping and survive the wire protocol losslessly: internal/wire
// assigns each a stable code and reconstructs an error for which
// errors.Is(err, sentinel) still holds on the client side.
var (
	// ErrBadRequest marks a request that is malformed independent of
	// the store's state: no target (or two), an unknown strategy, a
	// version outside the fragment history, an unsupported
	// combination.
	ErrBadRequest = errors.New("bad request")

	// ErrShapeMismatch marks a request whose coordinates do not match
	// the store's dimensionality.
	ErrShapeMismatch = errors.New("shape mismatch")
)

// Strategy selects how a region read executes. The zero value plans:
// each fragment, once open, is probed at Table I's price or scanned at
// the price of the points its pruned walk reaches (auto.go). The paper's
// probe-every-cell form is a probe list of the window's cells,
// QueryRequest{Probe: region.Coords()}.
type Strategy uint8

const (
	// StrategyAuto chooses probe or scan per fragment by preferScan.
	StrategyAuto Strategy = iota
	// StrategyScan forces a scan of each overlapping fragment's stored
	// points, filtered by region containment (region targets only).
	StrategyScan
	strategyEnd // sentinel for validation; keep last
)

// String names the strategy for logs and metric labels.
func (st Strategy) String() string {
	switch st {
	case StrategyAuto:
		return "auto"
	case StrategyScan:
		return "scan"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(st))
	}
}

// AsOfLatest asks a query to answer against the store's current
// version (every committed fragment).
const AsOfLatest = -1

// QueryRequest describes one read. Exactly one of Probe or Region must
// be set. A zero Strategy plans the read; a zero AsOf is the empty
// store, so callers wanting the current state set AsOfLatest.
type QueryRequest struct {
	// Probe lists exact points to look up.
	Probe *tensor.Coords
	// Region is a rectangular window to read.
	Region *tensor.Region
	// AsOf answers against the store's state after its first AsOf
	// fragments (0 = empty store, Fragments() = everything);
	// AsOfLatest follows the live head. Probe targets only.
	AsOf int64
	// Strategy forces a region read's execution; zero plans it. See
	// Strategy.
	Strategy Strategy
}

// Validate rejects a request that is structurally bad or whose target
// is not dims-dimensional, before any view is pinned or shard asked. It
// is the one read validator: Store and serve.Router call it and add
// only their own as-of rule.
func (req *QueryRequest) Validate(dims int) error {
	if (req.Probe == nil) == (req.Region == nil) {
		return fmt.Errorf("store: %w: exactly one of Probe or Region must be set", ErrBadRequest)
	}
	if req.Strategy >= strategyEnd {
		return fmt.Errorf("store: %w: unknown strategy %d", ErrBadRequest, req.Strategy)
	}
	if req.Probe != nil && req.Strategy != StrategyAuto {
		return fmt.Errorf("store: %w: strategy %v needs a region target", ErrBadRequest, req.Strategy)
	}
	if req.AsOf < AsOfLatest {
		return fmt.Errorf("store: %w: as-of version %d", ErrBadRequest, req.AsOf)
	}
	if req.Region != nil && req.AsOf != AsOfLatest {
		return fmt.Errorf("store: %w: as-of reads take a probe target", ErrBadRequest)
	}
	if req.Probe != nil && req.Probe.Dims() != dims {
		return fmt.Errorf("store: %w: %d-dim probe for %d-dim store", ErrShapeMismatch, req.Probe.Dims(), dims)
	}
	if req.Region != nil && req.Region.Dims() != dims {
		return fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, req.Region.Dims(), dims)
	}
	return nil
}

// Query answers one QueryRequest — the entry point applications, the
// facade, and the wire protocol share. Probe targets partition by tile;
// region targets intersect the region with each materialized tile and
// run the tile-local sub-region through the tile's read, so a region
// read touches only the tiles it covers. A tile is not a caller: the
// request is validated, spanned and slow-logged once, here, and each
// tile runs only its share of the work, against a pinned MVCC view.
// Results are sorted by global row-major order, which equals
// linear-address order, the order the router's scatter-gather
// reproduces across shard processes. An as-of read needs one address
// space (a version counts one tile's fragments), so it is refused on a
// store of more than one tile. Cancellation is checked once per
// fragment: a canceled ctx stops before the next fetch/probe/scan and
// returns ctx.Err().
func (s *Store) Query(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	if err := req.Validate(s.tiling.Shape.Dims()); err != nil {
		return nil, nil, err
	}
	reg := s.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsQuery)
	if sp.Sampled() {
		sp.SetAttrStr("strategy", req.Strategy.String())
	}
	res, rep, err := s.queryTiles(ctx, req)
	FinishRequestSpan(reg, ctx, sp, obsQuery, s.kind.String(), ReadCost(rep), err)
	return res, rep, err
}

// queryTiles answers the request tile by tile — each tile's share as a
// tile-local query against its store — and merges the answers, taken
// back to global coordinates, in row-major order. A probe inside one
// tile, as a point probe always is, goes to that tile whole: there is
// nothing to partition and nothing to merge, and at the origin tile
// nothing to translate either.
func (s *Store) queryTiles(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	if req.AsOf != AsOfLatest {
		t, err := s.sole()
		if err != nil {
			return nil, nil, err
		}
		return t.read(ctx, req)
	}
	dir := s.dir.Load()
	if req.Probe != nil {
		if e := s.probeTile(dir, req.Probe); e != nil {
			if !isOrigin(e.idx) {
				req = QueryRequest{Probe: s.localProbe(req.Probe, e.idx), AsOf: AsOfLatest}
			}
			return s.queryTile(ctx, e.tile, e.idx, req)
		}
	}
	var tiles []*tilePart
	if req.Region != nil {
		tiles = s.tilesIn(dir, *req.Region)
	} else {
		tiles = s.partition(dir, req.Probe, nil)
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
		res, r, err := s.queryTile(ctx, t.tile, t.idx, sub)
		if err != nil {
			return nil, nil, err
		}
		rep.Add(r)
		parts = append(parts, res)
	}
	t := time.Now()
	res := MergeResults(s.tiling.Shape.Dims(), parts)
	rep.Merge += time.Since(t)
	return res, rep, nil
}

// queryTile answers a tile-local request from the tile at idx. The
// tile's result is this call's to consume: it shifts to the global
// frame in place (the origin tile's frame is the global one).
func (s *Store) queryTile(ctx context.Context, t *tile, idx []uint64, sub QueryRequest) (*Result, *ReadReport, error) {
	res, rep, err := t.read(ctx, sub)
	if err != nil {
		return nil, nil, err
	}
	s.toGlobal(res.Coords, idx)
	return res, rep, nil
}

// toGlobal shifts tile-local points of the tile at idx to the global
// frame in place; the origin tile's need no shift.
func (s *Store) toGlobal(c *tensor.Coords, idx []uint64) {
	if isOrigin(idx) {
		return
	}
	flat := c.Flat()
	for i := range flat {
		flat[i] += s.tiling.Origin(idx, i%len(idx))
	}
}

// isOrigin reports whether idx is the tile at the origin, whose frame
// is the global one.
func isOrigin(idx []uint64) bool {
	for _, v := range idx {
		if v != 0 {
			return false
		}
	}
	return true
}

// probeTile returns the materialized tile that holds every point of
// probe, or nil when there is none: the points span tiles, leave the
// shape, lie in a tile never written, or there are none. Its buffers
// live on the stack, so it allocates nothing.
func (s *Store) probeTile(dir *tileDir, probe *tensor.Coords) *tileEntry {
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
		if !s.tiling.Shape.Contains(p) {
			return nil
		}
		if i == 0 {
			s.tiling.Index(idx, p)
			continue
		}
		for d, v := range p {
			if v/s.tiling.Tile[d] != idx[d] {
				return nil
			}
		}
	}
	var nb [64]byte
	return dir.byName[string(s.tiling.AppendName(nb[:0], idx))]
}

// localProbe is probe in the frame of the tile at idx, which holds all
// its points.
func (s *Store) localProbe(probe *tensor.Coords, idx []uint64) *tensor.Coords {
	local := tensor.NewCoords(probe.Dims(), probe.Len())
	local.AppendFlat(probe.Flat())
	flat := local.Flat()
	for i := range flat {
		flat[i] -= s.tiling.Origin(idx, i%len(idx))
	}
	return local
}

// AlignPoints lays a probe query's result out along its probe: vals[i]
// and found[i] answer probe point i, whatever order and multiplicity
// the probe has. It is a pure function of the two, keyed on the
// coordinate tuple, so it serves a Result from a Store, a client or a
// router alike — including shapes whose linear address
// overflows uint64.
func AlignPoints(probe *tensor.Coords, res *Result) (vals []float64, found []bool) {
	byPoint := make(map[string]float64, res.Coords.Len())
	var key []byte
	for i, n := 0, res.Coords.Len(); i < n; i++ {
		key = appendPointKey(key[:0], res.Coords.At(i))
		byPoint[string(key)] = res.Values[i]
	}
	vals = make([]float64, probe.Len())
	found = make([]bool, probe.Len())
	for i, n := 0, probe.Len(); i < n; i++ {
		key = appendPointKey(key[:0], probe.At(i))
		vals[i], found[i] = byPoint[string(key)]
	}
	return vals, found
}

// appendPointKey appends a map key for one coordinate tuple.
func appendPointKey(dst []byte, p []uint64) []byte {
	for _, v := range p {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

// MergeResults joins results over disjoint cell sets in one coordinate
// frame — a store's tiles, a router's shards — into one Result
// ordered by coordinate tuple. That is row-major linear-address order,
// so the outcome is byte-identical to what one flat store holding all
// the cells would return. Each part is already in that order, so the
// parts are merged, not sorted: a binary min-heap of the parts keyed by
// their next point, which a 32³ window over 32³ tiles keeps at ≤ 8
// entries. nil parts are skipped; parts may be consumed.
func MergeResults(dims int, parts []*Result) *Result {
	var runs []*Result
	total := 0
	for _, res := range parts {
		if res != nil && res.Coords.Len() > 0 {
			runs = append(runs, res)
			total += res.Coords.Len()
		}
	}
	if len(runs) == 1 {
		return runs[0]
	}
	out := &Result{Coords: tensor.NewCoords(dims, total), Values: make([]float64, 0, total)}
	next := make([]int, len(runs)) // per run, the index of its next point
	less := func(a, b int) bool {
		return slices.Compare(runs[a].Coords.At(next[a]), runs[b].Coords.At(next[b])) < 0
	}
	heap := make([]int, len(runs)) // run indices; heap[0] holds the least next point
	for i := range heap {
		heap[i] = i
	}
	down := func(i int) {
		for {
			least := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(heap) && less(heap[c], heap[least]) {
					least = c
				}
			}
			if least == i {
				return
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		r := heap[0]
		out.Coords.AppendFlat(runs[r].Coords.At(next[r]))
		out.Values = append(out.Values, runs[r].Values[next[r]])
		if next[r]++; next[r] == runs[r].Coords.Len() {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}

// ReadCost flattens a read report into the cost map shared by span
// attributes and slow-query-log entries. It returns a constructor, not
// a map, so the untraced fast path allocates nothing.
func ReadCost(rep *ReadReport) func() map[string]int64 {
	if rep == nil {
		return nil
	}
	return func() map[string]int64 {
		return map[string]int64{
			"candidates":     int64(rep.Candidates),
			"filter_skipped": int64(rep.FilterSkipped),
			"fragments":      int64(rep.Fragments),
			"probes":         int64(rep.Probed),
			"scans":          int64(rep.Scans),
			"found":          int64(rep.Found),
			"cache_hits":     int64(rep.CacheHits),
			"cache_misses":   int64(rep.CacheMisses),
			"bytes_read":     rep.BytesRead,
			"io_ns":          int64(rep.IO),
			"extract_ns":     int64(rep.Extract),
			"probe_ns":       int64(rep.Probe),
			"merge_ns":       int64(rep.Merge),
			"epoch":          int64(rep.Epoch),
		}
	}
}

// PushCost flattens a push-down kernel report the same way.
func PushCost(rep *PushReport) func() map[string]int64 {
	if rep == nil {
		return nil
	}
	return func() map[string]int64 {
		return map[string]int64{
			"fragments":      int64(rep.Fragments),
			"filter_skipped": int64(rep.Skipped),
			"cells":          int64(rep.Cells),
			"shadowed":       int64(rep.Shadowed),
			"dead":           int64(rep.Dead),
		}
	}
}

// FinishRequestSpan closes a request span with the per-query cost
// attribution attached and feeds the slow-query log. cost may be nil
// (failed requests have no report); it is only invoked when the span is
// sampled or the slowlog triggers, so the common path stays
// allocation-free.
func FinishRequestSpan(reg *obs.Registry, ctx context.Context, sp *obs.Span, op, kind string, cost func() map[string]int64, err error) {
	var deadlineNs int64
	if dl, ok := ctx.Deadline(); ok {
		deadlineNs = int64(time.Until(dl))
	}
	if sp.Sampled() {
		sp.SetAttrStr("kind", kind)
		if cost != nil {
			for k, v := range cost() {
				sp.SetAttr(k, v)
			}
		}
		if deadlineNs != 0 {
			sp.SetAttr("deadline_remaining_ns", deadlineNs)
		}
		if err != nil {
			sp.SetAttrStr("err", err.Error())
		}
	}
	d := sp.End()
	if sl := reg.SlowLog(); sl.Triggered(d) {
		e := obs.SlowEntry{
			Proc:       reg.Proc(),
			Op:         op,
			Kind:       kind,
			DurNs:      int64(d),
			DeadlineNs: deadlineNs,
		}
		if tc, ok := obs.TraceFrom(ctx); ok {
			e.TraceID = tc.TraceID()
		}
		if cost != nil {
			e.Cost = cost()
		}
		if err != nil {
			e.Err = err.Error()
		}
		sl.Record(e)
	}
}
