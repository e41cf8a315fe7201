package store

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/store/fragcache"
	"sparseart/internal/tensor"
)

// Chunked is the paper's remedy for linear-address overflow (§II-B): "a
// practical solution … is to break large tensors into small blocks" and
// linearize against each block's local boundary. It partitions the
// domain into fixed tiles, keeps one Store per non-empty tile, and
// translates coordinates between the global frame and each tile's local
// frame. The global shape may have a volume far beyond uint64; only
// each tile's volume must fit.
type Chunked struct {
	fs     fsim.FS
	prefix string
	kind   core.Kind
	shape  tensor.Shape // global extents
	tile   tensor.Shape // tile extents
	codec  compress.ID
	stores map[string]*Store
	// opts are forwarded to every tile Store, so tiles share the parent's
	// observability registry, build options, and manifest policy.
	opts []Option
	obs  *obs.Registry
	// cache is the reader cache shared by every tile: one byte budget
	// for the whole chunked store instead of one per tile. nil when
	// caching is off (WithReaderCache(0), which the tiles are forwarded
	// too).
	cache *fragcache.Cache
}

// Observability span names for the chunked store's composite operations.
// Each wraps the per-tile sub-store spans that fire inside it.
const (
	obsChunkedWrite  = "store.chunked.write"
	obsChunkedRead   = "store.chunked.read"
	obsChunkedDelete = "store.chunked.delete"
)

// obsReg resolves the chunked store's registry like Store.obsReg.
func (c *Chunked) obsReg() *obs.Registry {
	if c.obs != nil {
		return c.obs
	}
	return obs.Global()
}

// NewChunked creates a chunked store with the given tile extents. Each
// tile's volume must fit in uint64. The tiling parameters are
// persisted in a small CHUNKED manifest under prefix, so the store can
// be reopened later with OpenChunked.
func NewChunked(fs fsim.FS, prefix string, kind core.Kind, shape, tile tensor.Shape, opts ...Option) (*Chunked, error) {
	c, err := newChunkedShell(fs, prefix, kind, shape, tile, opts)
	if err != nil {
		return nil, err
	}
	if err := c.writeChunkedManifest(); err != nil {
		return nil, err
	}
	return c, nil
}

// newChunkedShell validates the tiling parameters and builds the
// in-memory Chunked with no tiles — the part NewChunked and
// OpenChunked share.
func newChunkedShell(fs fsim.FS, prefix string, kind core.Kind, shape, tile tensor.Shape, opts []Option) (*Chunked, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := tile.Validate(); err != nil {
		return nil, err
	}
	if len(tile) != len(shape) {
		return nil, fmt.Errorf("store: tile rank %d != shape rank %d", len(tile), len(shape))
	}
	if _, ok := tile.Volume(); !ok {
		return nil, fmt.Errorf("store: %w: tile %v", tensor.ErrOverflow, tile)
	}
	if _, err := core.Get(kind); err != nil {
		return nil, err
	}
	c := &Chunked{
		fs: fs, prefix: prefix, kind: kind,
		shape: shape.Clone(), tile: tile.Clone(),
		stores: map[string]*Store{},
		opts:   opts,
	}
	// Probe the option set once: misuse is rejected here (before any
	// tile exists) rather than on the first write that materializes one.
	var probe Store
	if err := probe.applyOptions(opts); err != nil {
		return nil, err
	}
	c.codec = probe.codec
	c.obs = probe.obs
	// One reader cache for all tiles: the budget the options would give
	// a single store is the chunked store's global budget, so N tiles
	// do not claim N budgets.
	switch {
	case probe.sharedCache != nil:
		c.cache = probe.sharedCache
	case probe.cacheBudget > 0:
		c.cache = fragcache.New(probe.cacheBudget, c.obsReg)
	}
	return c, nil
}

// SharedCache returns the reader cache all tiles share, or nil when
// caching is off. The property tests use it to assert the one-budget
// invariant.
func (c *Chunked) SharedCache() *fragcache.Cache { return c.cache }

// Obs returns the registry this chunked store (and every tile) reports
// to: the injected one (WithObs) or the process-global registry. Bind
// an internal/obs/serve Server to it to scrape per-tile cache metrics
// and the write/read phase histograms live.
func (c *Chunked) Obs() *obs.Registry { return c.obsReg() }

// Close folds every tile's manifest log into its checkpoint, bounding
// the replay work the next open of each tile pays. Tiles remain usable.
func (c *Chunked) Close() error {
	for _, key := range c.sortedTileKeys() {
		if err := c.stores[key].Close(); err != nil {
			return fmt.Errorf("store: close tile %s: %w", key, err)
		}
	}
	return nil
}

// sortedTileKeys returns the non-empty tile keys in deterministic order.
func (c *Chunked) sortedTileKeys() []string {
	keys := make([]string, 0, len(c.stores))
	for key := range c.stores {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// Shape returns the global shape.
func (c *Chunked) Shape() tensor.Shape { return c.shape }

// Kind returns the organization every tile writes.
func (c *Chunked) Kind() core.Kind { return c.kind }

// Tile returns the tile extents (interior tiles; edge tiles clip).
func (c *Chunked) Tile() tensor.Shape { return c.tile }

// Tiles returns the number of non-empty tiles.
func (c *Chunked) Tiles() int { return len(c.stores) }

// Fragments sums live fragments across all tiles.
func (c *Chunked) Fragments() int {
	var total int
	for _, s := range c.stores {
		total += s.Fragments()
	}
	return total
}

// Epoch sums the tile manifest epochs — a monotonic change counter for
// the whole chunked store, not a single MVCC version.
func (c *Chunked) Epoch() uint64 {
	var total uint64
	for _, s := range c.stores {
		total += s.Epoch()
	}
	return total
}

// TotalBytes sums fragment bytes across all tiles.
func (c *Chunked) TotalBytes() int64 {
	var total int64
	for _, s := range c.stores {
		total += s.TotalBytes()
	}
	return total
}

// tileIndex returns the per-dimension tile index of a global point.
func (c *Chunked) tileIndex(p []uint64) []uint64 {
	idx := make([]uint64, len(p))
	for d := range p {
		idx[d] = p[d] / c.tile[d]
	}
	return idx
}

func tileKey(idx []uint64) string {
	var b strings.Builder
	b.WriteString("t")
	for _, v := range idx {
		fmt.Fprintf(&b, "-%d", v)
	}
	return b.String()
}

// tileShape returns the (edge-clipped) extents of the tile at idx.
func (c *Chunked) tileShape(idx []uint64) tensor.Shape {
	s := make(tensor.Shape, len(idx))
	for d := range idx {
		origin := idx[d] * c.tile[d]
		s[d] = c.tile[d]
		if origin+s[d] > c.shape[d] {
			s[d] = c.shape[d] - origin
		}
	}
	return s
}

func (c *Chunked) tileStore(idx []uint64) (*Store, error) {
	key := tileKey(idx)
	if s, ok := c.stores[key]; ok {
		return s, nil
	}
	opts := c.opts
	if c.cache != nil {
		// Inject the shared cache (superseding any forwarded per-tile
		// budget — it was already spent on the shared cache) and label
		// this tile's traffic for per-tile hit metrics.
		opts = append(opts[:len(opts):len(opts)], withTileCache(c.cache), withCacheScope(key))
	}
	s, err := Create(c.fs, c.prefix+"/"+key, c.kind, c.tileShape(idx), opts...)
	if err != nil {
		return nil, err
	}
	c.stores[key] = s
	c.obsReg().Gauge("store.chunked.tiles", "kind", c.kind.String()).Set(int64(len(c.stores)))
	return s, nil
}

// tilePart is one tile's slice of a partitioned point set, in tile-local
// coordinates.
type tilePart struct {
	idx    []uint64
	coords *tensor.Coords
	vals   []float64
}

// partitionByTile splits global points into per-tile buckets with
// tile-local coordinates, preserving input order within each bucket.
// Returned keys are in first-seen order; callers sort for determinism.
func (c *Chunked) partitionByTile(coords *tensor.Coords, vals []float64) (map[string]*tilePart, []string, error) {
	parts := map[string]*tilePart{}
	var keys []string
	local := make([]uint64, coords.Dims())
	for i, n := 0, coords.Len(); i < n; i++ {
		p := coords.At(i)
		if !c.shape.Contains(p) {
			return nil, nil, fmt.Errorf("store: %w: point %v outside shape %v", ErrShapeMismatch, p, c.shape)
		}
		idx := c.tileIndex(p)
		key := tileKey(idx)
		g, ok := parts[key]
		if !ok {
			g = &tilePart{idx: idx, coords: tensor.NewCoords(coords.Dims(), 0)}
			parts[key] = g
			keys = append(keys, key)
		}
		for d := range p {
			local[d] = p[d] - idx[d]*c.tile[d]
		}
		g.coords.Append(local...)
		g.vals = append(g.vals, vals[i])
	}
	return parts, keys, nil
}

// Write partitions the points by tile and writes one fragment per
// non-empty tile, translating to tile-local coordinates so every linear
// address stays within uint64: a one-batch cross-tile ingest whose
// per-tile reports fold into one.
func (c *Chunked) Write(coords *tensor.Coords, vals []float64) (*WriteReport, error) {
	root := c.obsReg().Start(obsChunkedWrite)
	defer root.End()
	reps, err := c.WriteBatch([]Batch{{Coords: coords, Values: vals}}, 0)
	if err != nil {
		return nil, err
	}
	total := &WriteReport{}
	for _, rep := range reps {
		total.Add(rep)
	}
	return total, nil
}

// DeleteRegion writes tombstones over the region in every existing tile
// it intersects (tiles with no data need none); tilesIn finds them
// without visiting every tile the store has ever materialized.
func (c *Chunked) DeleteRegion(region tensor.Region) (*WriteReport, error) {
	if region.Dims() != c.shape.Dims() {
		return nil, fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, region.Dims(), c.shape.Dims())
	}
	if _, err := tensor.NewRegion(c.shape, region.Start, region.Size); err != nil {
		return nil, fmt.Errorf("store: %w: %v", ErrShapeMismatch, err)
	}
	root := c.obsReg().Start(obsChunkedDelete)
	defer root.End()
	total := &WriteReport{}
	for _, t := range c.tilesIn(region) {
		rep, err := t.store.DeleteRegion(t.clip)
		if err != nil {
			return nil, err
		}
		total.Add(rep)
	}
	return total, nil
}

// tileRef is one materialized tile a request touches, with the tile's
// share of the target in tile-local coordinates: the region clipped to
// the tile's frame, or the probe points that fall in it.
type tileRef struct {
	key   string
	idx   []uint64
	store *Store
	clip  tensor.Region
	probe *tensor.Coords
}

// tilesIn lists the materialized tiles that region intersects, in
// tile-key order — the order every per-tile fold (float kernel partials
// among them) has always taken. The tiles are found arithmetically: the
// region maps to a hyper-rectangle of tile indices, each looked up by
// key, so a small region in a store of many tiles touches only the
// tiles it covers. Only when the hyper-rectangle holds more candidates
// than tiles exist does the walk go over the existing tiles instead.
// The region may reach past the shape (a query's can); the part outside
// holds no tiles.
func (c *Chunked) tilesIn(region tensor.Region) []tileRef {
	dims := c.shape.Dims()
	lo := make([]uint64, dims)
	hi := make([]uint64, dims)
	span := uint64(1)
	bounded := true // span still counts the hyper-rectangle's tiles
	for d := 0; d < dims; d++ {
		if region.Size[d] == 0 || region.Start[d] >= c.shape[d] {
			return nil
		}
		last := region.Start[d] + region.Size[d] - 1
		if last < region.Start[d] || last >= c.shape[d] {
			last = c.shape[d] - 1 // start+size overflowed or left the shape; clamp
		}
		lo[d] = region.Start[d] / c.tile[d]
		hi[d] = last / c.tile[d]
		// Overflow-safe: the division test rejects before the product
		// can wrap.
		n := hi[d] - lo[d] + 1
		if bounded && span > uint64(len(c.stores))/n {
			bounded = false
		}
		if bounded {
			span *= n
		}
	}

	var out []tileRef
	add := func(key string, idx []uint64) {
		st, ok := c.stores[key]
		if !ok {
			return
		}
		if clip, ok := c.tileClip(region, idx); ok {
			out = append(out, tileRef{key: key, idx: append([]uint64(nil), idx...), store: st, clip: clip})
		}
	}
	if bounded {
		// An odometer over [lo, hi], last dimension fastest; d runs below
		// zero when the first dimension wraps.
		idx := append([]uint64(nil), lo...)
		for d := 0; d >= 0; {
			add(tileKey(idx), idx)
			for d = dims - 1; d >= 0; d-- {
				idx[d]++
				if idx[d] <= hi[d] {
					break
				}
				idx[d] = lo[d]
			}
		}
	} else {
		for key := range c.stores {
			if idx := c.tileIndexFromKey(key); idx != nil {
				add(key, idx)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].key < out[b].key })
	return out
}

// tileClip intersects a global region with the tile at idx and returns
// the tile-local sub-region; ok is false when they do not overlap.
func (c *Chunked) tileClip(region tensor.Region, idx []uint64) (tensor.Region, bool) {
	ext := c.tileShape(idx)
	lo := make([]uint64, len(idx))
	size := make([]uint64, len(idx))
	for d := range idx {
		origin := idx[d] * c.tile[d]
		tileEnd := origin + ext[d]
		regEnd := region.Start[d] + region.Size[d]
		if regEnd < region.Start[d] {
			regEnd = math.MaxUint64 // start+size overflowed; clamp
		}
		l, h := max64(region.Start[d], origin), tileEnd
		if regEnd < h {
			h = regEnd
		}
		if l >= h {
			return tensor.Region{}, false
		}
		lo[d] = l - origin
		size[d] = h - l
	}
	return tensor.Region{Start: lo, Size: size}, true
}

// tileIndexFromKey parses a "t-1-2-3" tile key back to indices.
func (c *Chunked) tileIndexFromKey(key string) []uint64 {
	parts := strings.Split(key, "-")
	if len(parts) != c.shape.Dims()+1 || parts[0] != "t" {
		return nil
	}
	idx := make([]uint64, c.shape.Dims())
	for d, p := range parts[1:] {
		var v uint64
		for _, ch := range p {
			if ch < '0' || ch > '9' {
				return nil
			}
			v = v*10 + uint64(ch-'0')
		}
		idx[d] = v
	}
	return idx
}
