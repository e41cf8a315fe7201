package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// virtualNodes is how many ring positions each shard claims; more
// positions smooth the key distribution.
const virtualNodes = 64

// Router-level span names: one per routed request kind, wrapping the
// whole scatter-gather so a stitched trace shows fan-out under them.
const (
	obsRouterQuery  = "router.query"
	obsRouterKernel = "router.kernel"
)

// Router consistent-hashes tile coordinates across shard servers and
// presents the same Backend surface a single store does: scatter-
// gather region reads merge in linear-address order (byte-identical to
// one local store over the same writes), WriteBatch fans out per shard
// and folds one report per batch, and telemetry scrapes absorb every
// shard's counters. Each shard must host a store with the same global
// shape, tile extents, and kind — the router checks at construction. A
// flat store's tile is its shape: over flat shards, every request goes
// to the shard that owns the one tile.
type Router struct {
	tiling store.Tiling // every shard's global shape and tile extents
	kind   uint8        // core.Kind of every shard

	addrs   []string
	clients []*Client
	ring    []ringSlot
	reg     *obs.Registry
	ops     map[string]routerOp // per routed op kind, resolved once

	obsMu sync.Mutex
	prev  []*obs.Snapshot // last absorbed snapshot per shard
}

type ringSlot struct {
	hash  uint64
	shard int
}

// routerOp holds one routed op kind's counters.
type routerOp struct {
	scatter *obs.Counter // router.scatter{op}: shard calls made
	errors  *obs.Counter // router.shard.errors{op}: requests failed by a shard
}

// NewRouter dials every shard, verifies they agree on shape, tile, and
// kind, and builds the hash ring. reg receives the router's own
// metrics plus absorbed shard deltas; nil uses the process-global
// registry.
func NewRouter(addrs []string, reg *obs.Registry) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("serve: %w: router needs at least one shard", store.ErrBadRequest)
	}
	if reg == nil {
		reg = obs.Global()
	}
	r := &Router{addrs: addrs, reg: reg, prev: make([]*obs.Snapshot, len(addrs))}
	for i, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			r.closeClients()
			return nil, fmt.Errorf("serve: %w: shard %d (%s): %v", wire.ErrShardUnavailable, i, addr, err)
		}
		r.clients = append(r.clients, c)
		info, err := c.Info(context.Background())
		if err != nil {
			r.closeClients()
			return nil, fmt.Errorf("serve: shard %d (%s) info: %w", i, addr, err)
		}
		if i == 0 {
			r.tiling, r.kind = store.Tiling{Shape: info.Shape, Tile: info.Tile}, uint8(info.Kind)
		} else if !r.tiling.Shape.Equal(info.Shape) || !r.tiling.Tile.Equal(info.Tile) || r.kind != uint8(info.Kind) {
			r.closeClients()
			return nil, fmt.Errorf("serve: %w: shard %d (%s) disagrees on shape/tile/kind", store.ErrBadRequest, i, addr)
		}
	}
	r.ring = newRing(addrs)
	r.ops = map[string]routerOp{}
	for _, op := range []string{"info", "query", "write_batch", "delete", "kernel", "obs"} {
		r.ops[op] = routerOp{r.reg.Counter("router.scatter", "op", op), r.reg.Counter("router.shard.errors", "op", op)}
	}
	r.reg.Gauge("router.shards").Set(int64(len(addrs)))
	return r, nil
}

// newRing places virtualNodes slots per shard address on the hash ring.
func newRing(addrs []string) []ringSlot {
	var ring []ringSlot
	for i, addr := range addrs {
		for v := 0; v < virtualNodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", addr, v)
			ring = append(ring, ringSlot{hash: h.Sum64(), shard: i})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].shard < ring[j].shard
	})
	return ring
}

// Close tears down every shard connection.
func (r *Router) Close() error {
	r.closeClients()
	return nil
}

func (r *Router) closeClients() {
	for _, c := range r.clients {
		c.Close()
	}
}

// Shards returns the shard addresses in ring order of declaration.
func (r *Router) Shards() []string { return r.addrs }

// kindName labels the shards' organization for spans and slow-log rows.
func (r *Router) kindName() string { return core.Kind(r.kind).String() }

// owner maps a tile to its shard by consistent hashing the tile's name
// ("t-0-1", the same bytes that name the tile directory) with FNV-1a.
func (r *Router) owner(name []byte) int {
	key := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for _, b := range name {
		key = (key ^ uint64(b)) * 1099511628211 // FNV prime
	}
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= key })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// shardErr classifies a shard call failure: typed protocol errors and
// context errors pass through, transport failures become
// ErrShardUnavailable.
func shardErr(i int, addr string, err error) error {
	if err == nil {
		return nil
	}
	var we *wire.Error
	if errors.As(err, &we) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err // the shard (or the caller) said something specific
	}
	return fmt.Errorf("serve: %w: shard %d (%s): %v", wire.ErrShardUnavailable, i, addr, err)
}

// regionShards returns the shards owning at least one tile overlapping
// region: the owner of each tile the tiling's walk visits, stopping
// once every shard is in.
func (r *Router) regionShards(region tensor.Region) []int {
	lo, hi, ok := r.tiling.Range(region)
	if !ok {
		return nil
	}
	in := make([]bool, len(r.clients))
	shards := make([]int, 0, len(in))
	name := make([]byte, 0, 64)
	idx := append([]uint64(nil), lo...)
	for more := true; more && len(shards) < len(in); more = r.tiling.Next(idx, lo, hi) {
		name = r.tiling.AppendName(name[:0], idx)
		if s := r.owner(name); !in[s] {
			in[s] = true
			shards = append(shards, s)
		}
	}
	sort.Ints(shards)
	return shards
}

// scatter runs fn once per listed shard concurrently. The first shard
// to fail fatally cancels the context every other sub-request runs
// under, so siblings stop probing fragments for an answer the caller
// will never see. The error returned is the root cause: cancellations
// induced by a sibling's failure are reported only if no shard produced
// a real error of its own (and never when the caller's own ctx ended).
func (r *Router) scatter(ctx context.Context, shards []int, op string, fn func(ctx context.Context, i int) error) error {
	if len(shards) == 1 {
		// No siblings to stop: run on the caller's goroutine and context.
		return r.booked(op, shards[0], fn(ctx, shards[0]))
	}
	m := r.ops[op]
	m.scatter.Add(int64(len(shards)))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for k, i := range shards {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			if err := shardErr(i, r.addrs[i], fn(cctx, i)); err != nil {
				errs[k] = err
				cancel() // fatal for the whole request: stop the siblings
			}
		}(k, i)
	}
	wg.Wait()
	var induced error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// This shard stopped because a sibling failed first; keep
			// looking for the failure that caused it.
			if induced == nil {
				induced = err
			}
			continue
		}
		m.errors.Inc()
		return err
	}
	if induced != nil {
		m.errors.Inc()
		return induced
	}
	return nil
}

// booked counts and classifies one call to shard i that made up a
// whole request, as scatter does for a fan-out.
func (r *Router) booked(op string, i int, err error) error {
	m := r.ops[op]
	m.scatter.Inc()
	if err = shardErr(i, r.addrs[i], err); err != nil {
		m.errors.Inc()
	}
	return err
}

// allShards lists every shard index.
func (r *Router) allShards() []int {
	shards := make([]int, len(r.clients))
	for i := range shards {
		shards[i] = i
	}
	return shards
}

// Info aggregates shard identities.
func (r *Router) Info(ctx context.Context) (*wire.Info, error) {
	infos := make([]*wire.Info, len(r.clients))
	err := r.scatter(ctx, r.allShards(), "info", func(ctx context.Context, i int) error {
		info, err := r.clients[i].Info(ctx)
		infos[i] = info
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &wire.Info{Kind: infos[0].Kind, Shape: r.tiling.Shape, Tile: r.tiling.Tile}
	for _, info := range infos {
		out.Fragments += info.Fragments
		out.Epoch += info.Epoch
		out.Tiles += info.Tiles
	}
	return out, nil
}

// Query scatter-gathers a read. Probe targets partition per point by
// owning tile; region targets broadcast the whole region to every
// shard owning an overlapping tile — each shard answers from the tiles
// it materialized, which are disjoint, so the merged result is exactly
// what one local store would return.
func (r *Router) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	sp, ctx := r.reg.StartCtx(ctx, obsRouterQuery)
	res, rep, err := r.queryAt(ctx, req)
	store.FinishRequestSpan(r.reg, ctx, sp, obsRouterQuery, r.kindName(), store.ReadCost(rep), err)
	return res, rep, err
}

// queryAt dispatches the routed read under the router.query span.
func (r *Router) queryAt(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	if err := req.Validate(r.tiling.Shape.Dims()); err != nil {
		return nil, nil, err
	}
	if err := sendable(req); err != nil {
		return nil, nil, err
	}
	if req.AsOf != store.AsOfLatest {
		return nil, nil, fmt.Errorf("serve: %w: as-of reads are not supported on routed stores", store.ErrBadRequest)
	}
	if req.Region == nil {
		if s, ok := r.soleOwner(req.Probe); ok {
			// One shard owns every point (always so for a 1-point probe):
			// forward the request whole; its answer needs no merge.
			res, rep, err := r.clients[s].Query(ctx, req)
			if err = r.booked("query", s, err); err != nil {
				return nil, nil, err
			}
			rep.Shards = 1
			return res, rep, nil
		}
	}
	var (
		shards []int
		parts  []*pointPart // probe targets: each shard's slice of the probe
	)
	if req.Region != nil {
		shards = r.regionShards(*req.Region)
	} else {
		parts = r.partitionPoints(req.Probe, nil)
		shards = partShards(parts)
	}
	results := make([]*store.Result, len(r.clients))
	reports := make([]*store.ReadReport, len(r.clients))
	base := req // captured here, so the forwarded path above keeps req off the heap
	err := r.scatter(ctx, shards, "query", func(ctx context.Context, i int) error {
		sub := base
		if parts != nil {
			sub.Probe = parts[i].coords
		}
		res, rep, err := r.clients[i].Query(ctx, sub)
		results[i], reports[i] = res, rep
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &store.ReadReport{}
	for _, sub := range reports {
		if sub != nil {
			rep.Add(sub)
		}
	}
	rep.Shards = len(shards)
	// Shard tiles are disjoint, so the row-major merge matches a single
	// local store's read exactly.
	return store.MergeResults(r.tiling.Shape.Dims(), results), rep, nil
}

// soleOwner returns the shard owning every point of coords, if a single
// one does.
func (r *Router) soleOwner(coords *tensor.Coords) (int, bool) {
	var scratch [8]uint64
	idx := scratch[:]
	if coords.Dims() > len(scratch) {
		idx = make([]uint64, coords.Dims())
	}
	idx = idx[:coords.Dims()]
	name := make([]byte, 0, 64)
	owner := -1
	for i := 0; i < coords.Len(); i++ {
		r.tiling.Index(idx, coords.At(i))
		name = r.tiling.AppendName(name[:0], idx)
		switch s := r.owner(name); {
		case owner < 0:
			owner = s
		case s != owner:
			return 0, false
		}
	}
	return owner, owner >= 0
}

// pointPart is one shard's slice of a partitioned point set.
type pointPart struct {
	coords *tensor.Coords
	values []float64 // writes only
}

// partitionPoints splits points (and optionally their values) by
// owning shard; nil entries mean the shard got no points.
func (r *Router) partitionPoints(coords *tensor.Coords, values []float64) []*pointPart {
	parts := make([]*pointPart, len(r.clients))
	idx := make([]uint64, coords.Dims())
	name := make([]byte, 0, 64)
	for i := 0; i < coords.Len(); i++ {
		p := coords.At(i)
		r.tiling.Index(idx, p)
		name = r.tiling.AppendName(name[:0], idx)
		s := r.owner(name)
		part := parts[s]
		if part == nil {
			part = &pointPart{coords: tensor.NewCoords(coords.Dims(), 0)}
			parts[s] = part
		}
		part.coords.Append(p...)
		if values != nil {
			part.values = append(part.values, values[i])
		}
	}
	return parts
}

// partShards lists the shards a partition gave any points.
func partShards(parts []*pointPart) []int {
	var shards []int
	for i, part := range parts {
		if part != nil {
			shards = append(shards, i)
		}
	}
	return shards
}

// WriteBatch fans the batches out per shard: each shard receives its
// slice of every batch as one WriteBatch call (batch order preserved)
// and answers one report per sub-batch; the returned reports are one
// per caller batch, in request order, each the fold of its per-shard
// pieces (a zero report for an empty batch). On error no reports are
// returned; what a shard committed before it stays durable there.
func (r *Router) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	type shardBatch struct {
		src     []int // original batch index per sub-batch
		batches []store.Batch
	}
	// Reject the whole call before anything is sent: once a shard has
	// committed its slice there is no taking it back.
	if err := store.ValidateBatches(batches, r.tiling.Shape); err != nil {
		return nil, err
	}
	perShard := make([]*shardBatch, len(r.clients))
	var shards []int
	for bi, b := range batches {
		for i, part := range r.partitionPoints(b.Coords, b.Values) {
			if part == nil {
				continue
			}
			sb := perShard[i]
			if sb == nil {
				sb = &shardBatch{}
				perShard[i] = sb
				shards = append(shards, i)
			}
			sb.src = append(sb.src, bi)
			sb.batches = append(sb.batches, store.Batch{Coords: part.coords, Values: part.values})
		}
	}
	sort.Ints(shards)
	out := make([]*store.WriteReport, len(batches))
	for i := range out {
		out[i] = &store.WriteReport{}
	}
	var mu sync.Mutex
	err := r.scatter(ctx, shards, "write_batch", func(ctx context.Context, i int) error {
		reps, err := r.clients[i].WriteBatch(ctx, perShard[i].batches, workers)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for k, rep := range reps {
			if k < len(perShard[i].src) {
				out[perShard[i].src[k]].Add(rep)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteRegion broadcasts the tombstone to every shard owning an
// overlapping tile.
func (r *Router) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	if err := store.ValidateDeleteRegion(region, r.tiling.Shape); err != nil {
		return nil, err
	}
	reps := make([]*store.WriteReport, len(r.clients))
	err := r.scatter(ctx, r.regionShards(region), "delete", func(ctx context.Context, i int) error {
		rep, err := r.clients[i].DeleteRegion(ctx, region)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &store.WriteReport{}
	for _, rep := range reps {
		if rep != nil {
			out.Add(rep)
		}
	}
	return out, nil
}

// Kernel scatter-gathers any push-down kernel. Each shard answers over
// its own tiles, in global coordinates, and the dense answers sum
// element by element: shard tiles are disjoint, so every kernel —
// SpMV's y and TTV's Y included — is the sum of its shards' answers.
func (r *Router) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	if err := req.Validate(r.tiling.Shape.Dims()); err != nil {
		return nil, err
	}
	sp, ctx := r.reg.StartCtx(ctx, obsRouterKernel)
	if sp.Sampled() {
		sp.SetAttrStr("kernel", req.Op.String())
	}
	res, err := r.kernelAt(ctx, req)
	var rep *store.PushReport
	if res != nil {
		rep = res.Report
	}
	store.FinishRequestSpan(r.reg, ctx, sp, obsRouterKernel, r.kindName(), store.PushCost(rep), err)
	return res, err
}

// kernelAt dispatches a validated routed kernel under the router.kernel
// span.
func (r *Router) kernelAt(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	shards := r.allShards()
	if req.Region != nil {
		shards = r.regionShards(*req.Region)
	}
	results := make([]*store.KernelResult, len(r.clients))
	err := r.scatter(ctx, shards, "kernel", func(ctx context.Context, i int) error {
		res, err := r.clients[i].Kernel(ctx, req)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &store.KernelResult{Report: &store.PushReport{}}
	for _, res := range results {
		if res == nil {
			continue
		}
		if out.Values == nil {
			out.Values = make([]float64, len(res.Values))
			out.Shape = res.Shape
		}
		for k, v := range res.Values {
			if k < len(out.Values) {
				out.Values[k] += v
			}
		}
		out.Report.Add(res.Report)
	}
	if out.Values == nil {
		out.Values = []float64{0} // a region over no tile asks no shard: the empty sum
	}
	return out, nil
}

// RefreshObs pulls every shard's telemetry snapshot, absorbs the delta
// since the previous pull into the router's registry (monotonic: each
// shard increment lands exactly once), and remembers the new baseline.
// This is the obs/serve OnScrape hook — a scrape of the router's
// /metrics sees the whole fleet.
func (r *Router) RefreshObs(ctx context.Context) error {
	snaps := make([]*obs.Snapshot, len(r.clients))
	err := r.scatter(ctx, r.allShards(), "obs", func(ctx context.Context, i int) error {
		snap, err := r.clients[i].ObsSnapshot(ctx)
		snaps[i] = snap
		return err
	})
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	for i, snap := range snaps {
		if snap == nil {
			continue // unreachable shard: keep its old baseline
		}
		if r.prev[i] != nil {
			r.reg.Absorb(obs.Delta(r.prev[i], snap))
		} else {
			r.reg.Absorb(snap)
		}
		r.prev[i] = snap
	}
	return err
}

// ObsSnapshot refreshes from the shards and returns the aggregated
// registry snapshot — Backend's telemetry surface, so a served router
// answers MsgObs with fleet-wide counters.
func (r *Router) ObsSnapshot(ctx context.Context) ([]byte, error) {
	if err := r.RefreshObs(ctx); err != nil {
		return nil, err
	}
	return r.reg.Snapshot().JSON()
}

var _ Backend = (*Router)(nil)
