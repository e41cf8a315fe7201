package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// The traced run sees the program only from outside, through three
// seams the benchmark owns: the client loop (e2e), a timedBackend in
// front of the router and of each shard, and a timedFS under each
// shard. It runs one client, so at most one request is in flight and a
// span belongs to the request whose number is current when it starts.

// Span levels, outermost first. A deeper level is the child of the
// level above it within one request.
const (
	levelE2E = iota
	levelRouter
	levelShard
	levelFS
	levelCount
)

var levelNames = [levelCount]string{"e2e", "router", "shard", "fs"}

// span is one timed interval: what ran, when (ns since the recorder's
// base), for which request (0 = no request in flight: background
// work), at which level, and on which shard (-1 above the shards). Its
// parent is the span of the level above with the same request and, for
// a file-system span, the same shard.
type span struct {
	Name       string
	Start, End int64
	Req        uint64
	Level      int8
	Shard      int8
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	base time.Time
	on   atomic.Bool
	req  atomic.Uint64 // request in flight (0 = none)
	last atomic.Uint64 // newest request number handed out

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// breakdown is one request's e2e time split across the levels so that
// the parts sum to the whole exactly: each instant is charged to the
// deepest level with a span open. Scatter children that overlap are
// therefore counted once, and a parent's share is its span minus the
// union of its children.
type breakdown struct {
	E2E       int64
	Self      [levelCount]int64 // Self[levelE2E] is the client hop
	Shards    int               // shard spans under the request
	ShardSelf []int64           // per shard span: span minus its own file-system time
	Op        string            // the shard (or router) span's name
}

// breakdowns groups spans by request and splits each request's time.
// Requests without an e2e span (background work, warm-up leftovers)
// are skipped.
func breakdowns(spans []span) []breakdown {
	type group struct {
		e2e   *span
		byLvl [levelCount][][2]int64
		shard []span
		fs    []span
		op    string
	}
	groups := map[uint64]*group{}
	var order []uint64
	for i := range spans {
		s := &spans[i]
		if s.Req == 0 {
			continue
		}
		g := groups[s.Req]
		if g == nil {
			g = &group{}
			groups[s.Req] = g
			order = append(order, s.Req)
		}
		g.byLvl[s.Level] = append(g.byLvl[s.Level], [2]int64{s.Start, s.End})
		switch s.Level {
		case levelE2E:
			g.e2e = s
		case levelRouter:
			g.op = s.Name
		case levelShard:
			g.shard = append(g.shard, *s)
		case levelFS:
			g.fs = append(g.fs, *s)
		}
	}
	out := make([]breakdown, 0, len(order))
	for _, id := range order {
		g := groups[id]
		if g.e2e == nil {
			continue
		}
		lo, hi := g.e2e.Start, g.e2e.End
		b := breakdown{E2E: hi - lo, Shards: len(g.shard), Op: g.op}
		// covered[l] is the time some span at level l or deeper is open.
		var covered [levelCount + 1]int64
		var iv [][2]int64
		for l := levelCount - 1; l >= 0; l-- {
			iv = append(iv, g.byLvl[l]...)
			covered[l] = unionLen(iv, lo, hi)
		}
		for l := 0; l < levelCount; l++ {
			b.Self[l] = covered[l] - covered[l+1]
		}
		for _, sh := range g.shard {
			var kids [][2]int64
			for _, f := range g.fs {
				if f.Shard == sh.Shard {
					kids = append(kids, [2]int64{f.Start, f.End})
				}
			}
			b.ShardSelf = append(b.ShardSelf, (sh.End-sh.Start)-unionLen(kids, sh.Start, sh.End))
		}
		out = append(out, b)
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, one row
// per level and shard. Only the first maxSpans are written, so a cold
// region run does not leave a file of hundreds of megabytes.
func writeChromeTrace(path string, spans []span, maxSpans int) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: int(s.Level)*8 + int(s.Shard) + 1,
			Args: map[string]any{"req": s.Req, "level": levelNames[s.Level], "shard": s.Shard},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedBackend records one span around each call the workloads make
// into the Backend it wraps (Query, WriteBatch, DeleteRegion, Kernel;
// the rest pass through untimed): the router before it is served
// (levelRouter) or one shard's store (levelShard). open counts calls in
// progress, which is how the shard's timedFS tells request I/O from
// background I/O.
type timedBackend struct {
	serve.Backend
	rec   *recorder
	level int8
	shard int8
	open  atomic.Int32
}

func (b *timedBackend) begin() int64 {
	b.open.Add(1)
	return b.rec.now()
}

func (b *timedBackend) end(name string, start int64) {
	b.rec.add(span{Name: name, Start: start, End: b.rec.now(), Req: b.rec.req.Load(), Level: b.level, Shard: b.shard})
	b.open.Add(-1)
}

func (b *timedBackend) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	defer b.end("query", b.begin())
	return b.Backend.Query(ctx, req)
}

func (b *timedBackend) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	defer b.end("ingest", b.begin())
	return b.Backend.WriteBatch(ctx, batches, workers)
}

func (b *timedBackend) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	defer b.end("delete", b.begin())
	return b.Backend.DeleteRegion(ctx, region)
}

func (b *timedBackend) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	defer b.end("kernel", b.begin())
	return b.Backend.Kernel(ctx, req)
}

// nullBackend answers every query with one canned point and does no
// work, so a round trip against it costs the hop alone: client codec,
// two frames over loopback, server dispatch.
type nullBackend struct {
	serve.Backend // nil: any op but Query is a bug
	res           *store.Result
}

func newNullBackend(dims int) *nullBackend {
	c := tensor.NewCoords(dims, 1)
	c.Append(make([]uint64, dims)...)
	return &nullBackend{res: &store.Result{Coords: c, Values: []float64{1}}}
}

func (b *nullBackend) Query(context.Context, store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	return b.res, &store.ReadReport{}, nil
}
