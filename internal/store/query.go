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
// read varies in which target it takes (probe list or region), which
// strategy executes it (probe every cell, scan fragments, or the Table
// I cost model), and which version bound applies. QueryRequest carries those axes as one serializable
// value — the exact struct the wire protocol (internal/wire) carries —
// and Query threads a context.Context through the fragment loop
// (Store.read) so a server-side deadline stops in-store work instead
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

// Strategy selects how a region query executes. Probe-every-cell is
// the paper's benchmark form; scan enumerates each fragment's stored
// points; auto applies the Table I cost model per fragment.
type Strategy uint8

const (
	// StrategyDefault probes every region cell (or the given probe
	// list) with the organization's point-read algorithm.
	StrategyDefault Strategy = iota
	// StrategyScan enumerates each overlapping fragment's stored
	// points and filters by region containment (region targets only).
	StrategyScan
	// StrategyAuto chooses probe or scan per fragment by the Table I
	// complexity model (region targets only).
	StrategyAuto
	strategyEnd // sentinel for validation; keep last
)

// String names the strategy for logs and metric labels.
func (st Strategy) String() string {
	switch st {
	case StrategyDefault:
		return "probe"
	case StrategyScan:
		return "scan"
	case StrategyAuto:
		return "auto"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(st))
	}
}

// AsOfLatest asks a query to answer against the store's current
// version (every committed fragment).
const AsOfLatest = -1

// QueryRequest describes one read. Exactly one of Probe or Region must
// be set. The zero value of the remaining fields means "latest
// version, default strategy, serial execution" — note AsOf zero is the
// empty store, so callers wanting the current state must set
// AsOfLatest.
type QueryRequest struct {
	// Probe lists exact points to look up.
	Probe *tensor.Coords
	// Region is a rectangular window to read.
	Region *tensor.Region
	// AsOf answers against the store's state after its first AsOf
	// fragments (0 = empty store, Fragments() = everything);
	// AsOfLatest follows the live head. Probe targets only.
	AsOf int64
	// Strategy picks the region execution mode; see Strategy.
	Strategy Strategy
}

// Validate rejects a request that is structurally bad or whose target
// is not dims-dimensional, before any view is pinned or shard asked. It
// is the one read validator: Store, Chunked and serve.Router call it and
// add only their own as-of rule.
func (req *QueryRequest) Validate(dims int) error {
	if (req.Probe == nil) == (req.Region == nil) {
		return fmt.Errorf("store: %w: exactly one of Probe or Region must be set", ErrBadRequest)
	}
	if req.Strategy >= strategyEnd {
		return fmt.Errorf("store: %w: unknown strategy %d", ErrBadRequest, req.Strategy)
	}
	if req.Probe != nil && req.Strategy != StrategyDefault {
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

// Query answers one QueryRequest against a pinned MVCC view — the
// entry point applications, the facade, and the wire protocol share.
// Cancellation is checked once per fragment: a canceled ctx stops
// before the next fetch/probe/scan and returns ctx.Err().
func (s *Store) Query(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	if err := req.Validate(s.shape.Dims()); err != nil {
		return nil, nil, err
	}
	reg := s.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsQuery)
	if sp.Sampled() {
		sp.SetAttrStr("strategy", req.Strategy.String())
	}
	res, rep, err := s.read(ctx, req)
	FinishRequestSpan(reg, ctx, sp, obsQuery, s.kind.String(), ReadCost(rep), err)
	return res, rep, err
}

// AlignPoints lays a probe query's result out along its probe: vals[i]
// and found[i] answer probe point i, whatever order and multiplicity
// the probe has. It is a pure function of the two, keyed on the
// coordinate tuple, so it serves a Result from a Store, a Chunked, a
// client or a router alike — including shapes whose linear address
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
// frame — a chunked store's tiles, a router's shards — into one Result
// ordered by coordinate tuple. That is row-major linear-address order,
// so the outcome is byte-identical to what one flat store holding all
// the cells would return. nil parts are skipped; parts may be consumed.
func MergeResults(dims int, parts []*Result) *Result {
	var only *Result
	nonEmpty, total := 0, 0
	for _, res := range parts {
		if res != nil && res.Coords.Len() > 0 {
			only = res
			nonEmpty++
			total += res.Coords.Len()
		}
	}
	if nonEmpty == 1 {
		return only // already sorted
	}
	flat := make([]uint64, 0, total*dims)
	values := make([]float64, 0, total)
	for _, res := range parts {
		if res != nil {
			flat = append(flat, res.Coords.Flat()...)
			values = append(values, res.Values...)
		}
	}
	order := make([]int, total)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(flat[a*dims:(a+1)*dims], flat[b*dims:(b+1)*dims])
	})
	out := &Result{Coords: tensor.NewCoords(dims, total), Values: make([]float64, 0, total)}
	for _, i := range order {
		out.Coords.AppendFlat(flat[i*dims : (i+1)*dims])
		out.Values = append(out.Values, values[i])
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
