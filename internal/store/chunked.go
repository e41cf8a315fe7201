package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// domain into fixed tiles (Tiling), keeps one Store per non-empty tile,
// and translates coordinates between the global frame and each tile's
// local frame. The global shape may have a volume far beyond uint64;
// only each tile's volume must fit.
type Chunked struct {
	fs     fsim.FS
	prefix string
	kind   core.Kind
	tiling Tiling
	codec  compress.ID
	// dir is the tile directory. Each version is immutable and a request
	// loads it once; creating tiles replaces it copy-on-write under
	// createMu — the idiom the stores' epoch publish uses — so reads
	// never lock and two writers never create one tile twice.
	dir      atomic.Pointer[tileDir]
	createMu sync.Mutex
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

// tileEntry is one materialized tile: its name (the directory under the
// prefix, and the key every per-tile order sorts by), its per-dimension
// index, and its store. Immutable once published in a tileDir.
type tileEntry struct {
	name  string
	idx   []uint64
	store *Store
}

// tileDir is one version of the tile directory: the materialized tiles
// by name and in name order — the order every per-tile fold (float
// kernel partials among them), commit and Close has always taken.
type tileDir struct {
	byName map[string]*tileEntry
	sorted []*tileEntry
}

// holds reports whether every tile of want is materialized in d.
func (d *tileDir) holds(want []*tileWork) bool {
	for _, w := range want {
		if d.byName[w.name] == nil {
			return false
		}
	}
	return true
}

// with returns a directory holding d's tiles and added.
func (d *tileDir) with(added []*tileEntry) *tileDir {
	next := &tileDir{
		byName: make(map[string]*tileEntry, len(d.sorted)+len(added)),
		sorted: append(d.sorted[:len(d.sorted):len(d.sorted)], added...),
	}
	slices.SortFunc(next.sorted, func(a, b *tileEntry) int { return cmp.Compare(a.name, b.name) })
	for _, e := range next.sorted {
		next.byName[e.name] = e
	}
	return next
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
		tiling: Tiling{Shape: shape.Clone(), Tile: tile.Clone()},
		opts:   opts,
	}
	c.dir.Store(&tileDir{})
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
	if probe.cacheBudget > 0 {
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
	for _, e := range c.dir.Load().sorted {
		if err := e.store.Close(); err != nil {
			return fmt.Errorf("store: close tile %s: %w", e.name, err)
		}
	}
	return nil
}

// Shape returns the global shape.
func (c *Chunked) Shape() tensor.Shape { return c.tiling.Shape }

// Kind returns the organization every tile writes.
func (c *Chunked) Kind() core.Kind { return c.kind }

// Tile returns the tile extents (interior tiles; edge tiles clip).
func (c *Chunked) Tile() tensor.Shape { return c.tiling.Tile }

// Tiles returns the number of non-empty tiles.
func (c *Chunked) Tiles() int { return len(c.dir.Load().sorted) }

// Fragments sums live fragments across all tiles.
func (c *Chunked) Fragments() int {
	var total int
	for _, e := range c.dir.Load().sorted {
		total += e.store.Fragments()
	}
	return total
}

// Epoch sums the tile manifest epochs — a monotonic change counter for
// the whole chunked store, not a single MVCC version.
func (c *Chunked) Epoch() uint64 {
	var total uint64
	for _, e := range c.dir.Load().sorted {
		total += e.store.Epoch()
	}
	return total
}

// TotalBytes sums fragment bytes across all tiles.
func (c *Chunked) TotalBytes() int64 {
	var total int64
	for _, e := range c.dir.Load().sorted {
		total += e.store.TotalBytes()
	}
	return total
}

// tileStore opens or creates the store of tile e — the one place a tile
// Store comes into being, so every tile gets the parent's options and,
// when caching is on, the shared cache under its own scope.
func (c *Chunked) tileStore(e *tileEntry, create bool) (err error) {
	opts := c.opts
	if c.cache != nil {
		opts = append(opts[:len(opts):len(opts)], withTileCache(c.cache, e.name))
	}
	if create {
		e.store, err = Create(c.fs, c.prefix+"/"+e.name, c.kind, c.tiling.Extent(e.idx), opts...)
	} else {
		e.store, err = Open(c.fs, c.prefix+"/"+e.name, opts...)
	}
	return err
}

// publish makes dir the current tile directory.
func (c *Chunked) publish(dir *tileDir) {
	c.dir.Store(dir)
	c.obsReg().Gauge("store.chunked.tiles", "kind", c.kind.String()).Set(int64(len(dir.sorted)))
}

// materialize returns a directory holding every tile of want (in commit
// order), creating the missing ones under the creation mutex and
// publishing them in one copy-on-write step. setup maps each tile it
// created to the creation's modeled cost.
func (c *Chunked) materialize(want []*tileWork) (dir *tileDir, setup map[string]time.Duration, err error) {
	if dir = c.dir.Load(); dir.holds(want) {
		return dir, nil, nil
	}
	c.createMu.Lock()
	defer c.createMu.Unlock()
	dir = c.dir.Load()
	var added []*tileEntry
	setup = map[string]time.Duration{}
	c.takeCost() // discard any cost accrued outside the creations
	for _, w := range want {
		if dir.byName[w.name] != nil {
			continue
		}
		e := &tileEntry{name: w.name, idx: w.idx}
		if err = c.tileStore(e, true); err != nil {
			break // the tiles created so far exist on disk: publish them
		}
		setup[e.name] = c.takeCost()
		added = append(added, e)
	}
	if len(added) > 0 {
		dir = dir.with(added)
		c.publish(dir)
	}
	return dir, setup, err
}

// tilePart is one tile's share of a request, in tile-local coordinates:
// the points that fall in it (with their values, for a write) or the
// region clipped to its frame. store is nil for a tile not materialized
// yet, which only a write's partition lists.
type tilePart struct {
	name   string
	idx    []uint64
	store  *Store
	clip   tensor.Region
	coords *tensor.Coords
	vals   []float64
}

// partition splits global points (and their values, when given) into
// per-tile parts with tile-local coordinates, in tile-name order,
// preserving input order within each part. With a directory it is a
// probe's partition: points outside the shape or in tiles never written
// are simply not found, and dropped. Without one it is a write's: every
// point is kept (ValidateBatches has put them inside the shape). The
// per-point work is divide, append digits, look the bytes up; only a
// tile's first point allocates.
func (c *Chunked) partition(dir *tileDir, coords *tensor.Coords, vals []float64) []*tilePart {
	dims := coords.Dims()
	parts := map[string]*tilePart{}
	var out []*tilePart
	idx := make([]uint64, dims)
	local := make([]uint64, dims)
	name := make([]byte, 0, 64)
	for i, n := 0, coords.Len(); i < n; i++ {
		p := coords.At(i)
		if dir != nil && !c.tiling.Shape.Contains(p) {
			continue
		}
		c.tiling.Index(idx, p)
		name = c.tiling.AppendName(name[:0], idx)
		g, ok := parts[string(name)]
		if !ok {
			if dir == nil {
				g = &tilePart{name: string(name), idx: append([]uint64(nil), idx...)}
			} else if e := dir.byName[string(name)]; e != nil {
				g = &tilePart{name: e.name, idx: e.idx, store: e.store}
			} else {
				continue
			}
			g.coords = tensor.NewCoords(dims, 0)
			parts[g.name] = g
			out = append(out, g)
		}
		for d := range p {
			local[d] = p[d] - c.tiling.Origin(idx, d)
		}
		g.coords.Append(local...)
		if vals != nil {
			g.vals = append(g.vals, vals[i])
		}
	}
	slices.SortFunc(out, func(a, b *tilePart) int { return cmp.Compare(a.name, b.name) })
	return out
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
	if err := ValidateDeleteRegion(region, c.tiling.Shape); err != nil {
		return nil, err
	}
	root := c.obsReg().Start(obsChunkedDelete)
	defer root.End()
	total := &WriteReport{}
	for _, t := range c.tilesIn(c.dir.Load(), region) {
		rep, err := t.store.DeleteRegion(t.clip)
		if err != nil {
			return nil, err
		}
		total.Add(rep)
	}
	return total, nil
}

// tilesIn lists the materialized tiles that region intersects, each
// with the region clipped to its frame, in tile-name order. The tiles
// are found arithmetically: the region maps to a hyper-rectangle of
// tile indices, each looked up by name, so a small region in a store of
// many tiles touches only the tiles it covers. Only when the
// hyper-rectangle holds more candidates than tiles exist does the walk
// go over the existing tiles instead. The region may reach past the
// shape (a query's can); the part outside holds no tiles.
func (c *Chunked) tilesIn(dir *tileDir, region tensor.Region) []*tilePart {
	lo, hi, ok := c.tiling.Range(region)
	if !ok {
		return nil
	}
	var out []*tilePart
	add := func(e *tileEntry) {
		if clip, ok := c.tiling.Clip(region, e.idx); ok {
			out = append(out, &tilePart{name: e.name, idx: e.idx, store: e.store, clip: clip})
		}
	}
	if !c.tiling.Within(lo, hi, uint64(len(dir.sorted))) {
		for _, e := range dir.sorted {
			add(e)
		}
		return out
	}
	name := make([]byte, 0, 64)
	idx := append([]uint64(nil), lo...)
	for more := true; more; more = c.tiling.Next(idx, lo, hi) {
		name = c.tiling.AppendName(name[:0], idx)
		if e := dir.byName[string(name)]; e != nil {
			add(e)
		}
	}
	slices.SortFunc(out, func(a, b *tilePart) int { return cmp.Compare(a.name, b.name) })
	return out
}
