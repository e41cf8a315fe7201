// Package store implements the benchmark's storage engine, Algorithm 3
// of the paper: WRITE packages a coordinate buffer with a chosen
// organization, reorganizes the value buffer by the returned map,
// concatenates both into a fragment, and writes it to the file system;
// READ finds the fragments overlapping a query, probes each with the
// organization's read algorithm, and merges the results sorted by
// linear address.
//
// The engine reports a per-phase time breakdown for both directions.
// The write breakdown (Build / Reorg / Write / Others) is exactly the
// row structure of the paper's Table III; when the backing file system
// has a cost model (fsim.CostReporter) the I/O phases report modeled
// time, which is how the harness reproduces Lustre numbers
// deterministically.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/store/fragcache"
	"sparseart/internal/tensor"
)

// Store is a fragment store of one sparse tensor in one organization,
// laid over a grid of tiles: the paper's remedy for linear-address
// overflow (§II-B), "break large tensors into small blocks" and
// linearize against each block's local boundary. Each materialized
// tile is a fragment store of its own (tile), in tile-local
// coordinates; the Store partitions requests by tile, translates
// between the global frame and each tile's, and merges the answers.
// Only each tile's volume must fit in uint64, so the global shape may
// be far beyond it.
//
// A flat store (Create) is the one-tile case: its tile is its shape,
// and the tile's files lie at the prefix itself. A tiled store
// (NewChunked) records its tiling in a CHUNKED manifest and keeps each
// tile in a directory named after it. Open reads either layout. Every
// kernel, ScanLive and Convert runs on any tiling; only an as-of read,
// which needs one version sequence, is refused with ErrBadRequest on a
// store of more than one tile.
type Store struct {
	*config
	prefix string
	tiling Tiling
	// flat marks the one-tile layout Create writes: no CHUNKED manifest,
	// the tile's files directly under prefix.
	flat bool
	// dir is the tile directory. Each version is immutable and a request
	// loads it once; creating tiles replaces it copy-on-write under
	// createMu — the idiom the tiles' epoch publish uses — so reads
	// never lock and two writers never create one tile twice.
	dir      atomic.Pointer[tileDir]
	createMu sync.Mutex
}

// Chunked is Store, under the name benchmark/fleet.go uses.
type Chunked = Store

// tileEntry is one materialized tile: its name (the directory under
// the prefix of a tiled store, and the key every per-tile order sorts
// by), its per-dimension index, and its fragment store. Immutable once
// published in a tileDir.
type tileEntry struct {
	name string
	idx  []uint64
	tile *tile
}

// tileDir is one version of the tile directory: the materialized tiles
// by name and in name order — the order every per-tile fold (float
// kernel partials among them), commit and Close takes.
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

// Observability metric and span names emitted by the store. The write
// phases mirror the rows of the paper's Table III; the read phases
// mirror the READ breakdown. All are labeled with the store's
// organization ("kind").
const (
	obsWrite       = "store.write"        // root span per Write (and per compaction's consolidated write)
	obsWriteBuild  = "store.write.build"  // phase span + histogram
	obsWriteReorg  = "store.write.reorg"  // phase span + histogram
	obsWriteWrite  = "store.write.write"  // phase span + histogram (wall + modeled I/O)
	obsWriteOthers = "store.write.others" // phase span + histogram (manifest + metadata)
	obsDelete      = "store.delete"       // root span per DeleteRegion
	obsRead        = "store.read"         // root span per tile read
	obsReadIO      = "store.read.io"      // per-fragment fetch
	obsReadExtract = "store.read.extract" // per-fragment decode + open
	obsReadProbe   = "store.read.probe"   // per-fragment probe pass
	obsReadMerge   = "store.read.merge"   // final merge
	obsQuery       = "store.query"        // request span per Query (carries cost attrs)
	obsKernel      = "store.kernel"       // request span per Kernel
)

// Create makes an empty flat store under prefix on fs: one tile, the
// whole shape, whose volume must fit in uint64 (NewChunked tiles a
// larger one). Its tile is created up front, so an empty store opens.
func Create(fs fsim.FS, prefix string, kind core.Kind, shape tensor.Shape, opts ...Option) (*Store, error) {
	s, err := newStore(fs, prefix, kind, shape, shape, true, opts)
	if err != nil {
		return nil, err
	}
	name, idx := s.origin()
	if _, _, err := s.materialize([]*tileWork{{name: name, idx: idx}}); err != nil {
		return nil, err
	}
	return s, nil
}

// NewChunked makes an empty tiled store with the given tile extents.
// Each tile's volume must fit in uint64. The tiling parameters are
// persisted in a small CHUNKED manifest under prefix; tiles materialize
// on first write. Its tiles compact themselves in the background at
// defaultCompactAt fragments unless WithBackgroundCompaction says
// otherwise.
func NewChunked(fs fsim.FS, prefix string, kind core.Kind, shape, tile tensor.Shape, opts ...Option) (*Store, error) {
	s, err := newStore(fs, prefix, kind, shape, tile, false, opts)
	if err != nil {
		return nil, err
	}
	if err := s.writeChunkedManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open reopens a store of either layout: a CHUNKED manifest under
// prefix names a tiled store, whose tiling it restores and whose tile
// directories it opens; otherwise prefix's own MANIFEST is a flat
// store's one tile. Options that set persisted properties (codec) are
// ignored in favor of the manifests; runtime options (obs registry,
// reader cache, checkpoint cadence, compaction) apply.
func Open(fs fsim.FS, prefix string, opts ...Option) (*Store, error) {
	if data, err := fs.ReadFile(chunkedManifestPath(prefix)); err == nil {
		return openTiled(fs, prefix, data, opts)
	}
	m, err := readManifest(fs, prefix)
	if err != nil {
		return nil, err
	}
	if _, err := core.Get(m.kind); err != nil {
		return nil, fmt.Errorf("store: manifest: %w: %w", fragment.ErrCorrupt, err)
	}
	if _, err := tensor.NewLinearizer(m.shape, tensor.RowMajor); err != nil {
		return nil, fmt.Errorf("store: manifest: %w: %w", fragment.ErrCorrupt, err)
	}
	s, err := newStore(fs, prefix, m.kind, m.shape, m.shape, true, opts)
	if err != nil {
		return nil, err
	}
	name, idx := s.origin()
	e, err := s.openTile(m, name, idx)
	if err != nil {
		return nil, err
	}
	s.publish(s.dir.Load().with([]*tileEntry{e}))
	return s, nil
}

// OpenChunked is Open, under the name benchmark/fleet.go uses.
var OpenChunked = Open

// openTiled restores a tiled store from its CHUNKED manifest data and
// opens every tile directory found under the prefix.
func openTiled(fs fsim.FS, prefix string, data []byte, opts []Option) (*Store, error) {
	kind, shape, tiling, err := decodeChunkedManifest(data)
	if err != nil {
		return nil, err
	}
	s, err := newStore(fs, prefix, kind, shape, tiling, false, opts)
	if err != nil {
		return nil, err
	}
	var tiles []*tileEntry
	for _, name := range listTileDirs(fs, prefix) {
		idx, ok := s.tiling.ParseName(name)
		if !ok {
			continue
		}
		m, err := readManifest(fs, prefix+"/"+name)
		var e *tileEntry
		if err == nil {
			e, err = s.openTile(m, name, idx)
		}
		if err != nil {
			return nil, fmt.Errorf("store: open tile %s: %w", name, err)
		}
		tiles = append(tiles, e)
	}
	s.publish(s.dir.Load().with(tiles))
	return s, nil
}

// newStore validates the tiling and builds the store of the given
// layout with no tiles, its options applied once for every tile it
// will hold.
func newStore(fs fsim.FS, prefix string, kind core.Kind, shape, tile tensor.Shape, flat bool, opts []Option) (*Store, error) {
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
	cfg, err := newConfig(fs, kind, flat, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{config: cfg, prefix: prefix, tiling: Tiling{Shape: shape.Clone(), Tile: tile.Clone()}, flat: flat}
	s.dir.Store(&tileDir{})
	return s, nil
}

// Chunked-store persistence: NewChunked records the tiling parameters
// (kind, shape, tile extents) in one small CHUNKED manifest, and Open
// restores the store from it — discovering the materialized tiles by
// listing the prefix and opening each tile's own manifest.
const (
	chunkedManifestName  = "CHUNKED"
	chunkedManifestMagic = uint32(0x53434b31) // "SCK1"
)

// chunkedManifestPath returns the manifest's name under the prefix.
func chunkedManifestPath(prefix string) string {
	return prefix + "/" + chunkedManifestName
}

// writeChunkedManifest persists the tiling parameters.
func (s *Store) writeChunkedManifest() error {
	w := buf.GetWriter(64)
	defer buf.PutWriter(w)
	w.U32(chunkedManifestMagic)
	w.U8(uint8(s.kind))
	w.U16(uint16(s.tiling.Shape.Dims()))
	w.RawU64s(s.tiling.Shape)
	w.RawU64s(s.tiling.Tile)
	if err := s.fs.WriteFile(chunkedManifestPath(s.prefix), w.Bytes()); err != nil {
		return fmt.Errorf("store: write chunked manifest: %w", err)
	}
	return nil
}

// decodeChunkedManifest parses a CHUNKED manifest.
func decodeChunkedManifest(data []byte) (kind core.Kind, shape, tile tensor.Shape, err error) {
	r := buf.NewReader(data)
	if magic := r.U32(); magic != chunkedManifestMagic {
		return 0, nil, nil, fmt.Errorf("store: bad chunked manifest magic %#x", magic)
	}
	kind = core.Kind(r.U8())
	dims := uint64(r.U16())
	shape = tensor.Shape(r.RawU64s(dims))
	tile = tensor.Shape(r.RawU64s(dims))
	if err := r.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("store: chunked manifest: %w", err)
	}
	return kind, shape, tile, nil
}

// listTileDirs lists the directory names under prefix, in sorted
// order; the caller keeps the ones that parse as tile names. fs.List
// walks recursively, so tile payloads surface their directory.
func listTileDirs(fs fsim.FS, prefix string) []string {
	names, err := fs.List(prefix + "/")
	if err != nil {
		return nil
	}
	var dirs []string
	for _, name := range names {
		rest := strings.TrimPrefix(name, prefix+"/")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			continue // a file directly under the prefix, not a directory
		}
		// names are sorted, so one directory's files are adjacent
		if dir := rest[:slash]; len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

// SharedCache returns the reader cache all tiles share, or nil when
// caching is off. The property tests use it to assert the one-budget
// invariant.
func (s *Store) SharedCache() *fragcache.Cache { return s.cache }

// Obs returns the registry this store (and every tile) reports to: the
// injected one (WithObs) or the process-global registry. Callers
// mounting an HTTP telemetry endpoint (internal/obs/serve) bind it to
// this registry so the scrape sees exactly this store's traffic.
func (s *Store) Obs() *obs.Registry { return s.obsReg() }

// Shape returns the global shape.
func (s *Store) Shape() tensor.Shape { return s.tiling.Shape }

// Kind returns the store's organization, which every tile writes. It
// is fixed by Create or NewChunked: Convert writes a new store to
// change it.
func (s *Store) Kind() core.Kind { return s.kind }

// Tile returns the tile extents (interior tiles; edge tiles clip). A
// flat store's tile is its shape.
func (s *Store) Tile() tensor.Shape { return s.tiling.Tile }

// Tiles returns the number of tiles that hold a fragment: a flat
// store's one tile, made at Create, counts once something is written.
func (s *Store) Tiles() int {
	n := 0
	for _, e := range s.dir.Load().sorted {
		if e.tile.fragments() > 0 {
			n++
		}
	}
	return n
}

// Fragments sums the tiles' fragments in their current snapshots.
func (s *Store) Fragments() int {
	var total int
	for _, e := range s.dir.Load().sorted {
		total += e.tile.fragments()
	}
	return total
}

// Epoch sums the tile manifest epochs: a monotonic change counter that
// increments on every published mutation (write, delete, ingest flush,
// compaction swap). On a flat store it is the one tile's epoch, which
// reads pin and report in ReadReport.Epoch.
func (s *Store) Epoch() uint64 {
	var total uint64
	for _, e := range s.dir.Load().sorted {
		total += e.tile.currentEpoch()
	}
	return total
}

// TotalBytes returns the cumulative encoded size of all fragments — the
// "size of the result files" of the paper's Figure 4.
func (s *Store) TotalBytes() int64 {
	var total int64
	for _, e := range s.dir.Load().sorted {
		total += totalFragBytes(e.tile.currentFrags())
	}
	return total
}

// StoreStats is a structural snapshot of a store.
type StoreStats struct {
	Fragments  int
	Tombstones int
	// WrittenPoints counts points across all data fragments, including
	// cells later overwritten or deleted (the live count requires a
	// full read; see ExportAll).
	WrittenPoints int
	Bytes         int64
}

// Stats summarizes the store from its manifests alone (no fragment
// reads).
func (s *Store) Stats() StoreStats {
	var st StoreStats
	for _, e := range s.dir.Load().sorted {
		t := e.tile.stats()
		st.Fragments += t.Fragments
		st.Tombstones += t.Tombstones
		st.WrittenPoints += t.WrittenPoints
		st.Bytes += t.Bytes
	}
	return st
}

// eachTile runs fn on every materialized tile in name order and stops
// at the first error, which names the tile in a tiled store.
func (s *Store) eachTile(fn func(t *tile) error) error {
	for _, e := range s.dir.Load().sorted {
		if err := fn(e.tile); err != nil {
			if s.flat {
				return err
			}
			return fmt.Errorf("store: tile %s: %w", e.name, err)
		}
	}
	return nil
}

// origin returns the name and index of the tile at the origin, the one
// tile of a one-tile store.
func (s *Store) origin() (string, []uint64) {
	idx := make([]uint64, s.tiling.Shape.Dims())
	return string(s.tiling.AppendName(nil, idx)), idx
}

// sole returns the one tile of a one-tile store for an as-of read,
// which needs one version sequence, and refuses it with ErrBadRequest
// on a store of more. A tile not written yet answers as an empty tile
// that never reaches the disk.
func (s *Store) sole() (*tile, error) {
	if !s.tiling.Single() {
		return nil, fmt.Errorf("store: %w: as-of reads are not supported on chunked stores", ErrBadRequest)
	}
	if d := s.dir.Load(); len(d.sorted) == 1 {
		return d.sorted[0].tile, nil
	}
	t := &tile{config: s.config, shape: s.tiling.Shape}
	t.lin, _ = tensor.NewLinearizer(t.shape, tensor.RowMajor) // a tile's volume fits
	t.initViews()
	return t, nil
}

// newTile returns tile name's fragment store, not yet created or
// opened: its files lie at the prefix itself in a flat store, in the
// directory named after it in a tiled one, where its cache traffic is
// labeled with its name.
func (s *Store) newTile(name string) *tile {
	if s.flat {
		return &tile{config: s.config, prefix: s.prefix, codec: s.codec}
	}
	return &tile{config: s.config, prefix: s.prefix + "/" + name, scope: name, codec: s.codec}
}

// openTile opens the tile called name, at idx, from its decoded
// checkpoint.
func (s *Store) openTile(m *manifestState, name string, idx []uint64) (*tileEntry, error) {
	e := &tileEntry{name: name, idx: idx, tile: s.newTile(name)}
	if err := e.tile.open(m); err != nil {
		return nil, err
	}
	return e, nil
}

// publish makes dir the current tile directory.
func (s *Store) publish(dir *tileDir) {
	s.dir.Store(dir)
	s.obsReg().Gauge("store.tiles", "kind", s.kind.String()).Set(int64(len(dir.sorted)))
}

// materialize returns a directory holding every tile of want (in commit
// order), creating the missing ones under the creation mutex and
// publishing them in one copy-on-write step. setup maps each tile it
// created to the creation's modeled cost.
func (s *Store) materialize(want []*tileWork) (dir *tileDir, setup map[string]time.Duration, err error) {
	if dir = s.dir.Load(); dir.holds(want) {
		return dir, nil, nil
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	dir = s.dir.Load()
	var added []*tileEntry
	setup = map[string]time.Duration{}
	s.takeCost() // discard any cost accrued outside the creations
	for _, w := range want {
		if dir.byName[w.name] != nil {
			continue
		}
		e := &tileEntry{name: w.name, idx: w.idx, tile: s.newTile(w.name)}
		e.tile.shape = s.tiling.Extent(e.idx)
		if err = e.tile.create(); err != nil {
			break // the tiles created so far exist on disk: publish them
		}
		cost, _ := s.takeCost()
		setup[e.name] = cost.Total()
		added = append(added, e)
	}
	if len(added) > 0 {
		dir = dir.with(added)
		s.publish(dir)
	}
	return dir, setup, err
}

// tilePart is one tile's share of a request, in tile-local coordinates:
// the points that fall in it (with their values, for a write) or the
// region clipped to its frame. tile is nil for a tile not materialized
// yet, which only a write's partition lists.
type tilePart struct {
	name   string
	idx    []uint64
	tile   *tile
	clip   tensor.Region
	coords *tensor.Coords
	vals   []float64
}

// partition splits global points (and their values, when given) into
// per-tile parts with tile-local coordinates, in tile-name order,
// preserving input order within each part. With a directory it is a
// probe's partition: points outside the shape or in tiles never written
// are simply not found, and dropped. Without one it is a write's: every
// point is kept (ValidateBatches has put them inside the shape), and
// in a one-tile store the points are the one part as they are. The
// per-point work is divide, append digits, look the bytes up; only a
// tile's first point allocates.
func (s *Store) partition(dir *tileDir, coords *tensor.Coords, vals []float64) []*tilePart {
	if dir == nil && s.tiling.Single() {
		if coords.Len() == 0 {
			return nil
		}
		name, idx := s.origin()
		return []*tilePart{{name: name, idx: idx, coords: coords, vals: vals}}
	}
	dims := coords.Dims()
	parts := map[string]*tilePart{}
	var out []*tilePart
	idx := make([]uint64, dims)
	local := make([]uint64, dims)
	name := make([]byte, 0, 64)
	for i, n := 0, coords.Len(); i < n; i++ {
		p := coords.At(i)
		if dir != nil && !s.tiling.Shape.Contains(p) {
			continue
		}
		s.tiling.Index(idx, p)
		name = s.tiling.AppendName(name[:0], idx)
		g, ok := parts[string(name)]
		if !ok {
			if dir == nil {
				g = &tilePart{name: string(name), idx: append([]uint64(nil), idx...)}
			} else if e := dir.byName[string(name)]; e != nil {
				g = &tilePart{name: e.name, idx: e.idx, tile: e.tile}
			} else {
				continue
			}
			g.coords = tensor.NewCoords(dims, 0)
			parts[g.name] = g
			out = append(out, g)
		}
		for d := range p {
			local[d] = p[d] - s.tiling.Origin(idx, d)
		}
		g.coords.Append(local...)
		if vals != nil {
			g.vals = append(g.vals, vals[i])
		}
	}
	slices.SortFunc(out, func(a, b *tilePart) int { return cmp.Compare(a.name, b.name) })
	return out
}

// Write implements Algorithm 3's WRITE for one batch: it partitions the
// points by tile and writes one fragment per non-empty tile, in
// tile-local coordinates so every linear address stays within uint64 —
// a one-batch ingest (ingest.go), whose one report folds its tiles'.
// Writes to a tile are serialized by its writer lock; concurrent reads
// proceed against their pinned snapshots throughout. A batch of no
// points commits nothing and answers a zero report.
func (s *Store) Write(coords *tensor.Coords, vals []float64) (*WriteReport, error) {
	root := s.obsReg().Start(obsWrite)
	defer root.End()
	reps, err := s.WriteBatch([]Batch{{Coords: coords, Values: vals}}, 0)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// DeleteRegion marks every cell of the region as deleted, with one
// log-structured tombstone in every materialized tile the region meets
// (tiles with no data need none); tilesIn finds them without visiting
// every tile the store has ever materialized. Earlier data stays on
// disk (and visible to as-of reads) until a compaction folds the
// tombstone in. The report's Write phase is the log appends; Bytes is
// the framed records' size.
func (s *Store) DeleteRegion(region tensor.Region) (*WriteReport, error) {
	if err := ValidateDeleteRegion(region, s.tiling.Shape); err != nil {
		return nil, err
	}
	root := s.obsReg().Start(obsDelete)
	defer root.End()
	total := &WriteReport{}
	for _, t := range s.tilesIn(s.dir.Load(), region) {
		rep, err := t.tile.deleteRegion(t.clip)
		if err != nil {
			return nil, err
		}
		total.Add(rep)
	}
	return total, nil
}

// tilesIn lists the materialized tiles that region intersects, each
// with the region clipped to its frame, in tile-name order: every
// region a request carries reaches a tile through here, so an extent
// that wraps past MaxUint64 or reaches past the shape ends at the
// shape's edge, and a tile reads only windows inside it. The tiles are
// found arithmetically: the region maps to a hyper-rectangle of tile
// indices, each looked up by name, so a small region in a store of
// many tiles touches only the tiles it covers. Only when the
// hyper-rectangle holds more candidates than tiles exist does the walk
// go over the existing tiles instead.
func (s *Store) tilesIn(dir *tileDir, region tensor.Region) []*tilePart {
	lo, hi, ok := s.tiling.Range(region)
	if !ok {
		return nil
	}
	var out []*tilePart
	add := func(e *tileEntry) {
		if clip, ok := s.tiling.Clip(region, e.idx); ok {
			out = append(out, &tilePart{name: e.name, idx: e.idx, tile: e.tile, clip: clip})
		}
	}
	if !s.tiling.Within(lo, hi, uint64(len(dir.sorted))) {
		for _, e := range dir.sorted {
			add(e)
		}
		return out
	}
	name := make([]byte, 0, 64)
	idx := append([]uint64(nil), lo...)
	for more := true; more; more = s.tiling.Next(idx, lo, hi) {
		name = s.tiling.AppendName(name[:0], idx)
		if e := dir.byName[string(name)]; e != nil {
			add(e)
		}
	}
	slices.SortFunc(out, func(a, b *tilePart) int { return cmp.Compare(a.name, b.name) })
	return out
}
