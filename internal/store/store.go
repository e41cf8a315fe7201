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
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/buf"
	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/filter"
	"sparseart/internal/fragment"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/store/fragcache"
	"sparseart/internal/tensor"
)

const (
	manifestName = "MANIFEST"
	// manifestMagicV2 heads every checkpoint: "SMN" plus the format
	// version as an ASCII digit. docs/FORMATS.md §2 is the byte-level
	// spec; version 2 is the only one written or read.
	manifestMagicV2 = 0x324e4d53 // "SMN2"
)

// ErrNotFound reports a missing store.
var ErrNotFound = errors.New("store: store not found")

// Option configures a store at creation.
type Option func(*Store)

// WithCodec compresses fragment payloads with the given codec.
func WithCodec(id compress.ID) Option {
	return func(s *Store) { s.codec = id }
}

// WithBuildOptions overrides the organization's build options (e.g. to
// enable parallel builds; the default is the paper's serial setting).
func WithBuildOptions(o core.Options) Option {
	return func(s *Store) { s.buildOpts = &o }
}

// WithObs binds the store to a specific observability registry instead
// of the process-wide obs.Global(). The benchmark harness uses this to
// capture one store's phase breakdown in isolation.
func WithObs(r *obs.Registry) Option {
	return func(s *Store) { s.obs = r }
}

// DefaultCacheBudget is the fragment-reader cache's byte budget unless
// WithReaderCache says otherwise.
const DefaultCacheBudget = 256 << 20

// WithReaderCache sets the fragment-reader cache's byte budget. The
// cache keeps decoded fragment indexes (reader + values) resident so
// warm reads skip the file system entirely; see internal/store/fragcache.
// A budget of 0 (or below) disables caching.
func WithReaderCache(budget int64) Option {
	return func(s *Store) { s.cacheBudget = budget }
}

// initCache builds the reader cache after options are applied. A
// Chunked parent's cache takes precedence over any per-store budget.
func (s *Store) initCache() {
	if s.tileCache != nil {
		s.cache = s.tileCache
		return
	}
	if s.cacheBudget > 0 {
		s.cache = fragcache.New(s.cacheBudget, s.obsReg)
	}
}

type fragRef struct {
	name  string
	nnz   uint64
	bytes int64
	bbox  tensor.BBox // undefined when nnz == 0 and not a tombstone
	// filter is the fragment's per-dimension coordinate filter, built at
	// encode time and carried through the manifest so the read paths can
	// dismiss bbox false positives without opening the fragment file.
	// nil for tombstones and empty fragments (the read paths treat nil
	// as "maybe").
	filter *filter.Filter
	// tomb marks a deletion fragment covering tombRegion: cells inside
	// it are dead unless rewritten by a later fragment.
	tomb       bool
	tombRegion tensor.Region
}

// tombstoneRef is a deletion fragment's position in the write order.
type tombstoneRef struct {
	idx    int
	region tensor.Region
}

// tombstonesBefore lists the deletion fragments among the first limit
// fragments of the current snapshot.
func (s *Store) tombstonesBefore(limit int) []tombstoneRef {
	return tombstonesUpTo(s.currentFrags(), limit)
}

// tombstonesUpTo lists the deletion fragments among the first limit
// entries of frags.
func tombstonesUpTo(frags []fragRef, limit int) []tombstoneRef {
	var out []tombstoneRef
	for i := 0; i < limit && i < len(frags); i++ {
		if frags[i].tomb {
			out = append(out, tombstoneRef{idx: i, region: frags[i].tombRegion})
		}
	}
	return out
}

// orgState is the store's current organization: the manifest kind and
// its format implementation, immutable once published. Held behind an
// atomic pointer so a re-organizing compaction (CompactTo/CompactAuto)
// can swap it while concurrent readers label metrics and open fragments
// against whichever state they observe — correctness never depends on
// the pointer, because fragments are opened by their own header kind
// (see loadFragment).
type orgState struct {
	kind   core.Kind
	format core.Format
}

// Store is a single-tensor fragment store bound to one organization
// (rebindable by a re-organizing compaction).
type Store struct {
	fs        fsim.FS
	prefix    string
	org       atomic.Pointer[orgState]
	shape     tensor.Shape
	lin       *tensor.Linearizer
	codec     compress.ID
	buildOpts *core.Options
	obs       *obs.Registry
	// frags is the writer's working fragment list, guarded by writeMu.
	// Readers never touch it: they go through the published snapshot
	// (see view.go). Every durable mutation ends with publishLocked.
	frags  []fragRef
	nextID uint64

	// MVCC state (view.go). writeMu serializes all mutations — Write,
	// DeleteRegion, WriteBatch commits, Compact, Checkpoint. viewMu
	// guards the snapshot pointer, pin counts, and the deferred-GC
	// queue; lock order is writeMu before viewMu, never the reverse.
	writeMu   sync.Mutex
	viewMu    sync.Mutex
	cur       *readView
	pinned    map[*readView]struct{}
	viewRefs  int
	gcPending []pendingGC

	// Background compaction (maintenance.go): when bgMinFrags > 0,
	// publishing a view with at least that many fragments spawns one
	// compaction worker (bgRunning dedupes). Close waits on bgWG.
	bgMinFrags int
	bgRunning  atomic.Bool
	bgWG       sync.WaitGroup
	// autoReorg upgrades the background worker to CompactAuto
	// (advisor-guided re-organization). See WithAutoReorg.
	autoReorg bool

	// cache holds decoded fragment readers; nil when disabled.
	// cacheBudget sizes the store's own cache (WithReaderCache;
	// DefaultCacheBudget otherwise). tileCache is a Chunked parent's
	// cache, used instead; cacheScope labels this tile's traffic on it
	// (per-tile hit metrics).
	cache       *fragcache.Cache
	tileCache   *fragcache.Cache
	cacheScope  string
	cacheBudget int64

	// optErr holds the first option misuse (options.go), surfaced by
	// Create/Open/NewChunked.
	optErr error

	// Fragcache warming (warm.go): how many of the newest fragments
	// Open pre-loads into the reader cache.
	warmFrags int

	// loadedIndex holds a checkpoint's validated spatial-index section
	// (index.go) between manifest decode and the first initViews, nil
	// otherwise.
	loadedIndex *fragIndex

	// Manifest-log state (see manifest.go): the checkpoint cadence
	// (WithManifestCheckpointEvery; <= 0 is the adaptive policy), the
	// number of records currently in MANIFEST.LOG, and the fragment
	// count at the last checkpoint (the adaptive cadence's threshold).
	// staged buffers framed records awaiting a group-commit flush
	// (stagedRecs fragments' worth, appended in one fs.Append).
	ckptEvery     int
	logRecords    int
	lastCkptFrags int
	staged        []byte
	stagedRecs    int
}

// curKind returns the store's current organization kind. Safe to call
// from any goroutine; the value is a snapshot (a concurrent
// re-organizing compaction may change it).
func (s *Store) curKind() core.Kind { return s.org.Load().kind }

// curFormat returns the current organization's format implementation.
func (s *Store) curFormat() core.Format { return s.org.Load().format }

// setOrg swaps the store's organization. Caller holds writeMu.
func (s *Store) setOrg(kind core.Kind, format core.Format) {
	s.org.Store(&orgState{kind: kind, format: format})
}

// obsReg resolves the store's registry: the injected one if any,
// otherwise the process-wide registry (nil when observation is off —
// every obs call below is a no-op then).
func (s *Store) obsReg() *obs.Registry {
	if s.obs != nil {
		return s.obs
	}
	return obs.Global()
}

// Observability metric and span names emitted by the store. The write
// phases mirror the rows of the paper's Table III; the read phases
// mirror the READ breakdown. All are labeled with the store's
// organization ("kind").
const (
	obsWrite       = "store.write"        // root span per Write
	obsWriteBuild  = "store.write.build"  // phase span + histogram
	obsWriteReorg  = "store.write.reorg"  // phase span + histogram
	obsWriteWrite  = "store.write.write"  // phase span + histogram (wall + modeled I/O)
	obsWriteOthers = "store.write.others" // phase span + histogram (manifest + metadata)
	obsRead        = "store.read"         // root span per Read
	obsReadIO      = "store.read.io"      // per-fragment fetch
	obsReadExtract = "store.read.extract" // per-fragment decode + open
	obsReadProbe   = "store.read.probe"   // per-fragment probe pass
	obsReadMerge   = "store.read.merge"   // final merge
	obsQuery       = "store.query"        // request span per Query (carries cost attrs)
	obsKernel      = "store.kernel"       // request span per Kernel
)

// Create initializes an empty store under prefix on fs. The shape's
// volume must fit in uint64 (use Chunked past that).
func Create(fs fsim.FS, prefix string, kind core.Kind, shape tensor.Shape, opts ...Option) (*Store, error) {
	f, err := core.Get(kind)
	if err != nil {
		return nil, err
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{fs: fs, prefix: prefix, shape: shape.Clone(), lin: lin}
	s.setOrg(kind, f)
	if err := s.applyOptions(opts); err != nil {
		return nil, err
	}
	if _, err := compress.Get(s.codec); err != nil {
		return nil, err
	}
	s.initCache()
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	s.initViews()
	return s, nil
}

// manifestState is a decoded checkpoint: the store's persisted
// properties, fragment list, and — when the index section validates —
// the spatial index as of the checkpoint.
type manifestState struct {
	kind   core.Kind
	codec  compress.ID
	shape  tensor.Shape
	nextID uint64
	frags  []fragRef
	// index is the checkpoint's spatial index, nil when the section is
	// absent or failed validation (indexErr says why) — the caller
	// rebuilds from frags in that case, so a bad section costs open
	// time, never correctness.
	index    *fragIndex
	indexErr error
}

// decodeManifest parses a checkpoint. Used by Open and by
// DecodeManifestInfo (the sparseinspect surface). Every structural
// failure wraps fragment.ErrCorrupt, so a caller can tell a damaged or
// unsupported store from a missing one (ErrNotFound).
func decodeManifest(data []byte) (*manifestState, error) {
	r := buf.NewReader(data)
	switch magic := r.U32(); {
	case magic == manifestMagicV2:
	case isManifestMagic(magic):
		return nil, fmt.Errorf("store: manifest: %w: unsupported format SMN%c (this build reads SMN2 only)", fragment.ErrCorrupt, rune(magic>>24))
	default:
		return nil, fmt.Errorf("store: manifest: %w: bad magic %08x", fragment.ErrCorrupt, magic)
	}
	m := &manifestState{}
	m.kind = core.Kind(r.U8())
	m.codec = compress.ID(r.U8())
	dims := int(r.U16())
	m.shape = tensor.Shape(r.RawU64s(uint64(dims)))
	m.nextID = r.U64()
	count := r.U64()
	// Each manifest entry takes well over one byte, so a count beyond
	// the remaining payload is corruption — and must not drive the
	// decode loop below (a fuzzer-found hang).
	if count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("store: manifest: %w: declares %d fragments in %d bytes", fragment.ErrCorrupt, count, r.Remaining())
	}
	m.frags = make([]fragRef, 0, count)
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		var fr fragRef
		fr.name = string(r.Bytes32())
		fr.nnz = r.U64()
		fr.bytes = int64(r.U64())
		fr.bbox.Min = r.RawU64s(uint64(dims))
		fr.bbox.Max = r.RawU64s(uint64(dims))
		flags := r.U8()
		if flags&1 != 0 {
			fr.tomb = true
			fr.tombRegion.Start = r.RawU64s(uint64(dims))
			fr.tombRegion.Size = r.RawU64s(uint64(dims))
		}
		if flags&2 != 0 {
			filt, err := filter.Decode(r.Bytes32())
			if err != nil {
				return nil, fmt.Errorf("store: manifest: %w: fragment %s filter: %v", fragment.ErrCorrupt, fr.name, err)
			}
			fr.filter = filt
		}
		m.frags = append(m.frags, fr)
	}
	if r.Err() == nil && r.U8() != 0 {
		body := r.Bytes32()
		if r.Err() == nil {
			ir := buf.NewReader(body)
			m.index, m.indexErr = decodeFragIndex(ir, m.shape, len(m.frags))
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: manifest: %w: %v", fragment.ErrCorrupt, err)
	}
	return m, nil
}

// isManifestMagic reports whether magic is "SMN" followed by any
// version byte — a checkpoint of this family, current or not.
func isManifestMagic(magic uint32) bool {
	return magic&0x00ffffff == manifestMagicV2&0x00ffffff
}

// Open loads an existing store's manifest from fs. Options that set
// persisted properties (codec) are ignored in favor of the manifest;
// runtime options (obs registry, build options, reader cache) apply.
func Open(fs fsim.FS, prefix string, opts ...Option) (*Store, error) {
	data, err := fs.ReadFile(prefix + "/" + manifestName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	kind, codec, shape := m.kind, m.codec, m.shape
	f, err := core.Get(kind)
	if err != nil {
		return nil, fmt.Errorf("store: manifest: %w: %w", fragment.ErrCorrupt, err)
	}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return nil, fmt.Errorf("store: manifest: %w: %w", fragment.ErrCorrupt, err)
	}
	s := &Store{
		fs: fs, prefix: prefix, shape: shape,
		lin: lin, codec: codec, frags: m.frags, nextID: m.nextID,
		loadedIndex: m.index,
	}
	s.setOrg(kind, f)
	if err := s.applyOptions(opts); err != nil {
		return nil, err
	}
	s.codec = codec // the manifest's codec is authoritative
	s.initCache()
	s.lastCkptFrags = len(s.frags)
	// The checkpoint reflects the last fold; fragments committed since
	// live in the delta log. After a Close there is no log file.
	if err := s.replayLog(); err != nil {
		return nil, err
	}
	// With the manifest settled, sweep fragment files it does not
	// reference — crash debris from a compaction swap or a rolled-back
	// write — then publish the first snapshot.
	s.gcOrphans()
	s.initViews()
	// Warm after the log replays: the log's fragments are the newest,
	// exactly the ones warming targets.
	s.warmCache()
	return s, nil
}

// writeManifest writes the full-state checkpoint (SMN2, docs/FORMATS.md
// §2): the store's properties, one entry per fragment with a flags byte
// (bit 0 tombstone, bit 1 coordinate filter present, followed by the
// filter blob), and a trailing spatial-index section, rebuilt from the
// fragment list so any later Open can adopt it instead of rebuilding.
func (s *Store) writeManifest() error {
	w := buf.GetWriter(64 + len(s.frags)*(48+16*s.shape.Dims()))
	defer buf.PutWriter(w)
	w.U32(manifestMagicV2)
	w.U8(uint8(s.curKind()))
	w.U8(uint8(s.codec))
	w.U16(uint16(s.shape.Dims()))
	w.RawU64s(s.shape)
	w.U64(s.nextID)
	w.U64(uint64(len(s.frags)))
	for _, fr := range s.frags {
		w.Bytes32([]byte(fr.name))
		w.U64(fr.nnz)
		w.U64(uint64(fr.bytes))
		if fr.nnz > 0 || fr.tomb {
			w.RawU64s(fr.bbox.Min)
			w.RawU64s(fr.bbox.Max)
		} else {
			w.RawU64s(make([]uint64, 2*s.shape.Dims()))
		}
		var flags uint8
		if fr.tomb {
			flags |= 1
		}
		if fr.filter != nil {
			flags |= 2
		}
		w.U8(flags)
		if fr.tomb {
			w.RawU64s(fr.tombRegion.Start)
			w.RawU64s(fr.tombRegion.Size)
		}
		if fr.filter != nil {
			w.Bytes32(fr.filter.Encode())
		}
	}
	w.U8(1)
	iw := buf.NewWriter(256)
	buildFragIndex(s.shape, s.frags).encode(iw)
	w.Bytes32(iw.Bytes())
	return s.fs.WriteFile(s.prefix+"/"+manifestName, w.Bytes())
}

// Kind returns the store's organization.
func (s *Store) Kind() core.Kind { return s.curKind() }

// Shape returns the tensor shape.
func (s *Store) Shape() tensor.Shape { return s.shape }

// Fragments returns the number of fragments in the current snapshot.
func (s *Store) Fragments() int { return len(s.currentFrags()) }

// Epoch returns the store's current manifest epoch: it starts at 0 and
// increments on every published mutation (write, delete, ingest flush,
// compaction swap). Reads pin the epoch they execute against and report
// it in ReadReport.Epoch.
func (s *Store) Epoch() uint64 { return s.currentEpoch() }

// TotalBytes returns the cumulative encoded size of all fragments — the
// "size of the result files" of the paper's Figure 4.
func (s *Store) TotalBytes() int64 {
	return totalFragBytes(s.currentFrags())
}

func totalFragBytes(frags []fragRef) int64 {
	var total int64
	for _, fr := range frags {
		total += fr.bytes
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

// Stats summarizes the store from its manifest alone (no fragment
// reads).
func (s *Store) Stats() StoreStats {
	frags := s.currentFrags()
	st := StoreStats{Fragments: len(frags), Bytes: totalFragBytes(frags)}
	for _, fr := range frags {
		if fr.tomb {
			st.Tombstones++
		}
		st.WrittenPoints += int(fr.nnz)
	}
	return st
}

// WriteReport is the per-phase breakdown of one WRITE, matching the rows
// of the paper's Table III.
type WriteReport struct {
	Build  time.Duration // packaging the coordinates (the BUILD call)
	Reorg  time.Duration // permuting the value buffer by the map vector
	Write  time.Duration // serializing and storing the fragment
	Others time.Duration // manifest and metadata upkeep
	Bytes  int64         // encoded fragment size (for a log tombstone: record size)
	NNZ    int
	Name   string // fragment file name ("" for a log-structured tombstone)
	Epoch  uint64 // manifest epoch this mutation published
}

// Sum returns the total write time.
func (r WriteReport) Sum() time.Duration { return r.Build + r.Reorg + r.Write + r.Others }

// Add folds another write's report into r — a chunked write's tiles, a
// router's shards. Everything sums, epochs included (a change counter,
// as Chunked.Epoch is); Name keeps the first fragment named.
func (r *WriteReport) Add(o *WriteReport) {
	r.Build += o.Build
	r.Reorg += o.Reorg
	r.Write += o.Write
	r.Others += o.Others
	r.Bytes += o.Bytes
	r.NNZ += o.NNZ
	r.Epoch += o.Epoch
	if r.Name == "" {
		r.Name = o.Name
	}
}

// takeCost drains modeled I/O cost when the FS has a cost model,
// otherwise returns zero and ok=false.
func (s *Store) takeCost() (fsim.Cost, bool) {
	if cr, ok := s.fs.(fsim.CostReporter); ok {
		return cr.TakeCost(), true
	}
	return fsim.Cost{}, false
}

// Write implements Algorithm 3's WRITE: package coords, reorganize
// values, concatenate, and persist one fragment — the one-batch spelling
// of the ingest pipeline (ingest.go), prepared inline on the caller's
// goroutine. Writes are serialized by the store's writer lock;
// concurrent reads proceed against their pinned snapshots throughout.
func (s *Store) Write(c *tensor.Coords, vals []float64) (*WriteReport, error) {
	b := Batch{Coords: c, Values: vals}
	if err := ValidateBatches([]Batch{b}, s.shape); err != nil {
		return nil, err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.writeOne(b)
}

// DeleteRegion marks every cell of the region as deleted. The deletion
// is log-structured: it appends a tombstone record to the manifest delta
// log (MANIFEST.LOG) — no fragment file is written. Earlier data stays
// on disk (and remains visible to as-of queries) until Compact folds the
// tombstone in. The report's Write phase is the log append; Bytes is
// the framed record's size.
func (s *Store) DeleteRegion(region tensor.Region) (*WriteReport, error) {
	if err := ValidateDeleteRegion(region, s.shape); err != nil {
		return nil, err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	rep := &WriteReport{}
	s.takeCost()

	reg := s.obsReg()
	kind := s.curKind().String()
	root := reg.Start("store.delete")
	defer root.End()

	// A fragRef with an empty name is a log-structured tombstone — the
	// record IS the mutation, no file backs it: a group of one.
	t := time.Now()
	n := s.stageFragment(fragRef{bbox: region.BBox(), tomb: true, tombRegion: region})
	if _, err := s.flushStaged(); err != nil {
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return nil, err
	}
	wall := time.Since(t)
	if cost, ok := s.takeCost(); ok {
		rep.Write = wall + cost.Write + cost.Read
		rep.Others += cost.Meta
	} else {
		rep.Write = wall
	}
	rep.Bytes = int64(n)
	rep.Epoch = s.currentEpoch()
	reg.Counter("store.tombstone.count", "kind", kind).Inc()
	reg.Gauge("store.fragments", "kind", kind).Set(int64(len(s.frags)))
	return rep, nil
}

// ReadReport is the per-phase breakdown of one READ.
type ReadReport struct {
	IO        time.Duration // fetching fragment files
	Extract   time.Duration // decoding fragments and unpacking indexes
	Probe     time.Duration // organization-specific existence queries
	Merge     time.Duration // sorting results by linear address
	Fragments int           // fragments overlapping the query
	Probed    int           // points probed (n_read × overlapping fragments)
	Found     int
	// Scans counts fragments answered by scan mode (StrategyScan always;
	// StrategyAuto when the cost model preferred scanning).
	Scans int
	// Epoch is the manifest epoch this read pinned: the snapshot it
	// executed against. Concurrent mutations never change a pinned
	// snapshot, so the result is exactly the store's state at Epoch.
	Epoch uint64

	// Per-query cost attribution, fed into span attributes and the
	// slow-query log. Candidates is what the spatial index returned for
	// the target (Fragments = Candidates - tombstones - FilterSkipped);
	// FilterSkipped counts candidates the per-fragment coordinate
	// filters dismissed without a fetch.
	Candidates    int
	FilterSkipped int
	// CacheHits / CacheMisses split fragment fetches by whether the
	// reader cache answered (a coalesced fill counts as a hit: this
	// request performed no load). BytesRead is the bytes transferred by
	// this request's cold loads.
	CacheHits   int
	CacheMisses int
	BytesRead   int64
	// Shards is the scatter-gather fan-out that produced this report:
	// set by the router when merging shard reports, zero for local
	// reads.
	Shards int
}

// Sum returns the total read time.
func (r ReadReport) Sum() time.Duration { return r.IO + r.Extract + r.Probe + r.Merge }

// Add folds another read's report into r: a pool worker's fragment, a
// chunked store's tile, a router's shard. Every duration and count
// sums, epochs included (a change counter, as Chunked.Epoch is).
// Shards is left alone: fan-out is the folding caller's to state.
func (r *ReadReport) Add(o *ReadReport) {
	r.IO += o.IO
	r.Extract += o.Extract
	r.Probe += o.Probe
	r.Merge += o.Merge
	r.Fragments += o.Fragments
	r.Probed += o.Probed
	r.Found += o.Found
	r.Scans += o.Scans
	r.Epoch += o.Epoch
	r.Candidates += o.Candidates
	r.FilterSkipped += o.FilterSkipped
	r.CacheHits += o.CacheHits
	r.CacheMisses += o.CacheMisses
	r.BytesRead += o.BytesRead
}

// Result is a read's output: the found points and their values, sorted
// by row-major linear address (Algorithm 3 line 12).
type Result struct {
	Coords *tensor.Coords
	Values []float64
}

type hit struct {
	addr uint64
	frag int
	val  float64
}

// readPlan is everything that differs between reads, as data: the
// target's bounding box, which coordinate-filter predicate dismisses a
// fragment, and how a fetched fragment is extracted. A point read (and
// a StrategyDefault region read, whose cells are its probe list) looks
// every probe point up; StrategyScan walks the fragment's stored points
// inside the region; StrategyAuto picks one of the two per fragment;
// an export, with neither probe nor region, walks every stored point.
type readPlan struct {
	box    tensor.BBox
	probe  *tensor.Coords // points to look up; under StrategyAuto nil until a fragment probes
	region *tensor.Region // window to scan; nil for lookup-only reads and exports
	auto   bool           // choose lookup or scan per fragment by preferScan
	vol    uint64         // region volume: preferScan's n_read
}

// planRead derives the plan from a validated request.
func planRead(req QueryRequest) (pl readPlan, err error) {
	if req.Probe != nil {
		pl.probe = req.Probe
		pl.box, _ = req.Probe.Bounds() // an empty probe reads nothing, see readView
		return pl, nil
	}
	pl.box = req.Region.BBox()
	if req.Strategy == StrategyScan {
		pl.region = req.Region
		return pl, nil
	}
	var ok bool
	if pl.vol, ok = req.Region.Volume(); !ok {
		return pl, fmt.Errorf("store: %w: region %v", tensor.ErrOverflow, *req.Region)
	}
	if req.Strategy == StrategyAuto {
		pl.region, pl.auto = req.Region, true
	} else {
		pl.probe = req.Region.Coords()
	}
	return pl, nil
}

// scanPlan is the plan of a read that walks stored points instead of
// probing: every point of every fragment when region is nil (exports,
// compaction, whole-store kernels), the points inside region otherwise.
func (s *Store) scanPlan(region *tensor.Region) readPlan {
	if region != nil {
		return readPlan{box: region.BBox(), region: region}
	}
	whole := tensor.Region{Start: make([]uint64, s.shape.Dims()), Size: s.shape}
	return readPlan{box: whole.BBox()}
}

// mayHold asks fr's coordinate filter whether the fragment can hold any
// of the target. Filters have no false negatives, so false lets the
// loop skip the fragment without a fetch.
func (pl *readPlan) mayHold(fr *fragRef) bool {
	switch {
	case pl.region != nil:
		return fr.filter.MayOverlapRegion(*pl.region)
	case pl.probe != nil:
		return filterMayContainProbe(fr.filter, fr.bbox, pl.probe)
	}
	return true
}

// scans decides how fr is extracted, materializing the region's cells
// the first time a fragment is to be probed. It runs on the loop's own
// goroutine, before any worker sees the plan.
func (pl *readPlan) scans(s *Store, fr *fragRef) bool {
	if pl.region == nil {
		return pl.probe == nil
	}
	if !pl.auto || preferScan(s.curKind(), s.shape, fr.nnz, pl.vol) {
		return true
	}
	if pl.probe == nil {
		pl.probe = pl.region.Coords()
	}
	return false
}

// readAcc is where per-fragment extraction lands: an inline read has
// one for the request, a pooled read one per worker call.
type readAcc struct {
	hits []hit
	rep  ReadReport
}

// readFragment fetches one fragment and extracts the plan's target
// from it into acc, by scan or by point lookup.
func (s *Store) readFragment(root *obs.Span, fi int, fr *fragRef, pl *readPlan, scan bool, acc *readAcc) error {
	e, err := s.fetchFragment(root, *fr, &acc.rep)
	if err != nil {
		return err
	}
	sp := root.Child(obsReadProbe)
	t := time.Now()
	if scan {
		err = scanFragment(s.curKind(), e.Reader, pl.region, func(p []uint64, slot int) bool {
			acc.rep.Probed++
			acc.hits = append(acc.hits, hit{addr: s.lin.Linearize(p), frag: fi, val: e.Values[slot]})
			return true
		})
		acc.rep.Scans++
	} else {
		hits, probed := acc.hits, 0
		for i, n := 0, pl.probe.Len(); i < n; i++ {
			p := pl.probe.At(i)
			if !fr.bbox.Contains(p) {
				continue
			}
			probed++
			if slot, ok := e.Reader.Lookup(p); ok {
				hits = append(hits, hit{addr: s.lin.Linearize(p), frag: fi, val: e.Values[slot]})
			}
		}
		acc.hits = hits
		acc.rep.Probed += probed
	}
	sp.End()
	if err != nil {
		s.obsReg().Counter("store.read.errors", "kind", s.curKind().String()).Inc()
		return err
	}
	acc.rep.Probe += time.Since(t)
	return nil
}

// readPool runs readFragment on a bounded set of goroutines — the
// multi-fragment analogue of parallel I/O on an HPC node. Each call
// extracts into its own accumulator, folded into the pool's as it
// finishes: phase durations therefore sum work across workers, not
// elapsed time. Workers share the store's reader cache, so concurrent
// misses on one fragment coalesce into a single load.
type readPool struct {
	sem chan struct{}
	wg  sync.WaitGroup
	mu  sync.Mutex
	acc readAcc
	err error // first failure
}

// run hands one fragment to the pool, blocking while every worker slot
// is taken. The plan is copied: the loop keeps planning while workers
// read theirs.
func (p *readPool) run(s *Store, root *obs.Span, fi int, fr *fragRef, pl readPlan, scan bool) {
	p.wg.Add(1)
	p.sem <- struct{}{}
	go func() {
		defer p.wg.Done()
		defer func() { <-p.sem }()
		var local readAcc
		err := s.readFragment(root, fi, fr, &pl, scan, &local)
		p.mu.Lock()
		defer p.mu.Unlock()
		if err != nil {
			if p.err == nil {
				p.err = err
			}
			return
		}
		p.acc.hits = append(p.acc.hits, local.hits...)
		p.acc.rep.Add(&local.rep)
	}()
}

// read answers a validated request against a pinned view of the
// store's version the request names.
func (s *Store) read(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	v := s.acquireView()
	defer v.release()
	limit := len(v.frags)
	if req.AsOf != AsOfLatest {
		if req.AsOf > int64(len(v.frags)) {
			return nil, nil, fmt.Errorf("store: %w: version %d outside [0, %d]", ErrBadRequest, req.AsOf, len(v.frags))
		}
		limit = int(req.AsOf)
	}
	pl, err := planRead(req)
	if err != nil {
		return nil, nil, err
	}
	res, rep, _, err := s.readView(ctx, v, limit, pl, req.Workers, nil)
	return res, rep, err
}

// readView is Algorithm 3's READ and the store's only fragment loop:
// among the first limit fragments of v, list those whose bounding box
// overlaps the target, skip those the coordinate filters rule out,
// fetch and extract each survivor, then merge the hits by linear
// address — newest fragment wins, cells under a later tombstone are
// dead — handing each live cell to emit (a nil emit collects them in
// the returned Result). What varies is the readPlan and the emitter;
// fragments run inline unless workers (QueryRequest.Workers) asks for a
// pool.
//
// Cancellation is checked once per candidate fragment. A pooled read
// lets fragments already handed to a worker finish, hands out no more,
// and returns ctx.Err().
func (s *Store) readView(ctx context.Context, v *readView, limit int, pl readPlan, workers int, emit emitFunc) (*Result, *ReadReport, liveCounts, error) {
	acc := &readAcc{rep: ReadReport{Epoch: v.epoch}}
	rep := &acc.rep
	s.takeCost()
	reg := s.obsReg()
	kind := s.curKind().String()
	root, _ := reg.StartCtx(ctx, obsRead)
	defer root.End()
	if pl.probe != nil && pl.probe.Len() == 0 {
		return &Result{Coords: tensor.NewCoords(s.shape.Dims(), 0)}, rep, liveCounts{}, nil
	}
	var pool *readPool
	if n := psort.Workers(workers); n > 1 && workers != 0 {
		pool = &readPool{sem: make(chan struct{}, n)}
	}

	var err error
	cands := v.overlapping(pl.box, limit)
	rep.Candidates = len(cands)
	for _, fi := range cands {
		if err = ctx.Err(); err != nil {
			break
		}
		fr := &v.frags[fi]
		if fr.nnz == 0 {
			continue // tombstones join at the merge, not the fragment loop
		}
		if fr.filter != nil && !pl.mayHold(fr) {
			rep.FilterSkipped++
			continue
		}
		rep.Fragments++
		scan := pl.scans(s, fr)
		if pool != nil {
			pool.run(s, root, fi, fr, pl, scan)
		} else if err = s.readFragment(root, fi, fr, &pl, scan, acc); err != nil {
			break
		}
	}
	if pool != nil {
		pool.wg.Wait()
		if err == nil {
			err = pool.err
		}
		acc.hits = pool.acc.hits
		rep.Add(&pool.acc.rep)
	}
	if err != nil {
		return nil, nil, liveCounts{}, err
	}
	if rep.FilterSkipped > 0 {
		reg.Counter("store.filter.skipped", "kind", kind).Add(int64(rep.FilterSkipped))
	}

	sp := root.Child(obsReadMerge)
	res, live, mergeDur := mergeHits(s, acc.hits, v.overlapTombs(cands), emit)
	sp.End()
	acc.hits = nil // the report outlives the read; the hits need not
	rep.Merge = mergeDur
	rep.Found = int(live.cells)
	reg.Counter("store.read.count", "kind", kind).Inc()
	reg.Counter("store.read.fragments", "kind", kind).Add(int64(rep.Fragments))
	if rep.Scans > 0 {
		reg.Counter("store.read.scans", "kind", kind).Add(int64(rep.Scans))
	}
	reg.Counter("store.read.probed", "kind", kind).Add(int64(rep.Probed))
	reg.Counter("store.read.found", "kind", kind).Add(int64(rep.Found))
	return res, rep, live, nil
}

// filterMayContainProbe asks a fragment's coordinate filter whether any
// probe point inside its bounding box may be stored. False means the
// fragment provably holds none of the probe points (filters have no
// false negatives), so the read path can skip it without a fetch.
func filterMayContainProbe(f *filter.Filter, box tensor.BBox, probe *tensor.Coords) bool {
	for i, n := 0, probe.Len(); i < n; i++ {
		p := probe.At(i)
		if box.Contains(p) && f.MayContainPoint(p) {
			return true
		}
	}
	return false
}

// emitFunc receives a read's live cells one at a time, in ascending
// linear address. p is reused between calls; returning false ends the
// read there.
type emitFunc func(p []uint64, val float64) bool

// liveCounts is what mergeHits decided about a read's hits.
type liveCounts struct {
	cells       int64 // live: handed to the emitter
	overwritten int64 // lost to a later write of the same cell
	dead        int64 // newest write lies under a later tombstone
}

// mergeHits implements Algorithm 3 line 12 and is the only place a
// stored cell is judged live: sort hits by linear address (ties by
// fragment recency, then payload order), keep the newest value per
// cell, drop cells whose newest write precedes a covering tombstone,
// and hand what is left to emit in address order. With a nil emit the
// live cells are appended to the returned Result; a kernel passes its
// fold and no Result exists. The sort is a psort permutation sort, so
// large merges (region reads pulling millions of hits) use every core;
// small ones stay serial under psort's cutoff.
func mergeHits(s *Store, hits []hit, tombs []tombstoneRef, emit emitFunc) (*Result, liveCounts, time.Duration) {
	t := time.Now()
	// The comparison must be strict (a total order): a pooled read
	// appends hits in nondeterministic worker order, and a duplicated
	// probe point yields identical (addr, frag) pairs, so ties fall
	// through to the index. Entries equal on (addr, frag) carry the
	// same value, which keeps the merged result deterministic. A plain
	// SortPermByKey on the address would lose the fragment-recency
	// tie-break that newest-wins depends on.
	perm := psort.SortPerm(len(hits), 0, func(a, b int) bool {
		if hits[a].addr != hits[b].addr {
			return hits[a].addr < hits[b].addr
		}
		if hits[a].frag != hits[b].frag {
			return hits[a].frag < hits[b].frag
		}
		return a < b
	})
	var out *Result
	if emit == nil {
		out = &Result{Coords: tensor.NewCoords(s.shape.Dims(), len(hits))}
		emit = func(p []uint64, val float64) bool {
			out.Coords.Append(p...)
			out.Values = append(out.Values, val)
			return true
		}
	}
	p := make([]uint64, s.shape.Dims())
	var live liveCounts
	for i := range perm {
		h := hits[perm[i]]
		if i+1 < len(perm) && hits[perm[i+1]].addr == h.addr {
			live.overwritten++
			continue // a newer fragment overwrote this cell
		}
		s.lin.Delinearize(h.addr, p)
		dead := false
		for _, tb := range tombs {
			if tb.idx > h.frag && tb.region.Contains(p) {
				dead = true
				break
			}
		}
		if dead {
			live.dead++
			continue
		}
		live.cells++
		if !emit(p, h.val) {
			break
		}
	}
	if reg := s.obsReg(); reg != nil {
		kind := s.curKind().String()
		reg.Counter("store.merge.overwritten", "kind", kind).Add(live.overwritten)
		reg.Counter("store.merge.tombstone_dead", "kind", kind).Add(live.dead)
	}
	return out, live, time.Since(t)
}
