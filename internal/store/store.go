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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	// A checkpoint starts with "SMN" plus the format version as an
	// ASCII digit. docs/FORMATS.md §2 is the byte-level spec. SMN3 is
	// the one written; SMN2 (no key filters, no CRC) still opens, and
	// Open folds it to SMN3 before anything is appended beside it.
	manifestMagicV2 = 0x324e4d53 // "SMN2"
	manifestMagicV3 = 0x334e4d53 // "SMN3"
)

// ErrNotFound reports a missing store.
var ErrNotFound = errors.New("store: store not found")

// Option configures a store at creation.
type Option func(*Store)

// WithCodec compresses fragment payloads with the given codec.
func WithCodec(id compress.ID) Option {
	return func(s *Store) { s.codec = id }
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
	// filter and keys are the fragment's two filters, built at write
	// time (prepareBatch) and stored in its manifest record only, so a
	// read dismisses bbox false positives without opening the fragment
	// file: a window asks filter, the per-dimension coordinate
	// summaries; a probe asks keys, the joint-key filter over its
	// points' linear addresses. Both are nil for tombstones and empty
	// fragments, and keys is nil for fragments an SMN2 checkpoint or its
	// log listed; a read treats nil as "maybe".
	filter *filter.Filter
	keys   *filter.Keys
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

// Store is a single-tensor fragment store bound to one organization.
// kind and format are fixed by Create (or read from the manifest by
// Open) and never change: Convert writes a new store to change them.
type Store struct {
	fs     fsim.FS
	prefix string
	kind   core.Kind
	format core.Format
	shape  tensor.Shape
	lin    *tensor.Linearizer
	codec  compress.ID
	obs    *obs.Registry
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

// obsReg resolves the store's registry: the injected one if any,
// otherwise the process-wide registry (nil when observation is off —
// every obs call below is a no-op then).
func (s *Store) obsReg() *obs.Registry {
	if s.obs != nil {
		return s.obs
	}
	return obs.Global()
}

// Obs returns the registry this store reports to: the injected one
// (WithObs) or the process-global registry. Callers mounting an HTTP
// telemetry endpoint (internal/obs/serve) bind it to this registry so
// the scrape sees exactly this store's traffic.
func (s *Store) Obs() *obs.Registry { return s.obsReg() }

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
	s := &Store{fs: fs, prefix: prefix, kind: kind, format: f, shape: shape.Clone(), lin: lin}
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

// manifestState is a decoded checkpoint: its format version, the
// store's persisted properties and fragment list.
type manifestState struct {
	version int // 2 or 3
	kind    core.Kind
	codec   compress.ID
	shape   tensor.Shape
	nextID  uint64
	frags   []fragRef
}

// decodeManifest parses a checkpoint. Used by Open and by
// DecodeManifestInfo (the sparseinspect surface). Every structural
// failure — a CRC mismatch included — wraps fragment.ErrCorrupt, so a
// caller can tell a damaged or unsupported store from a missing one
// (ErrNotFound).
func decodeManifest(data []byte) (*manifestState, error) {
	m := &manifestState{}
	r := buf.NewReader(data)
	switch magic := r.U32(); {
	case magic == manifestMagicV3:
		body := len(data) - 4
		if body < 4 || crc32.ChecksumIEEE(data[:body]) != binary.LittleEndian.Uint32(data[body:]) {
			return nil, fmt.Errorf("store: manifest: %w: checksum mismatch", fragment.ErrCorrupt)
		}
		m.version = 3
		r = buf.NewReader(data[4:body])
	case magic == manifestMagicV2:
		m.version = 2
	case isManifestMagic(magic):
		return nil, fmt.Errorf("store: manifest: %w: unsupported format SMN%c (this build reads SMN2 and SMN3)", fragment.ErrCorrupt, rune(magic>>24))
	default:
		return nil, fmt.Errorf("store: manifest: %w: bad magic %08x", fragment.ErrCorrupt, magic)
	}
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
		if err := fr.readFilters(r, flags); err != nil {
			return nil, fmt.Errorf("store: manifest: %w: fragment %s: %v", fragment.ErrCorrupt, fr.name, err)
		}
		m.frags = append(m.frags, fr)
	}
	// A present index section (docs/FORMATS.md §2) comes from an older
	// writer: it is skipped unread.
	if r.Err() == nil && r.U8() != 0 {
		r.Bytes32()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: manifest: %w: %v", fragment.ErrCorrupt, err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("store: manifest: %w: %d trailing bytes", fragment.ErrCorrupt, r.Remaining())
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
		fs: fs, prefix: prefix, kind: kind, format: f, shape: shape,
		lin: lin, codec: codec, frags: m.frags, nextID: m.nextID,
	}
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
	// An SMN2 checkpoint is folded to SMN3 before any key-carrying
	// record can join its log: a build that reads SMN2 only refuses the
	// store by name instead of truncating those records as a torn tail.
	if m.version == 2 {
		if err := s.checkpoint(); err != nil {
			return nil, err
		}
	}
	// With the manifest settled, sweep fragment files it does not
	// reference — crash debris from a compaction swap or a rolled-back
	// write — then publish the first snapshot.
	s.gcOrphans()
	s.initViews()
	return s, nil
}

// writeManifest writes the full-state checkpoint (SMN3, docs/FORMATS.md
// §2): the store's properties, one entry per fragment with a flags byte
// (bit 0 tombstone, bit 1 coordinate filter present, bit 2 key filter
// present, each filter blob following in that order), an
// index-presence byte of 0 (no index section), and the CRC32 of every
// byte before it.
func (s *Store) writeManifest() error {
	w := buf.GetWriter(64 + len(s.frags)*(48+16*s.shape.Dims()))
	defer buf.PutWriter(w)
	w.U32(manifestMagicV3)
	w.U8(uint8(s.kind))
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
		w.U8(fr.entryFlags())
		if fr.tomb {
			w.RawU64s(fr.tombRegion.Start)
			w.RawU64s(fr.tombRegion.Size)
		}
		fr.appendFilters(w)
	}
	w.U8(0)
	w.U32(crc32.ChecksumIEEE(w.Bytes()))
	return s.fs.WriteFile(s.prefix+"/"+manifestName, w.Bytes())
}

// Kind returns the store's organization.
func (s *Store) Kind() core.Kind { return s.kind }

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
// A batch of no points commits nothing and answers a zero report.
func (s *Store) Write(c *tensor.Coords, vals []float64) (*WriteReport, error) {
	b := Batch{Coords: c, Values: vals}
	if err := ValidateBatches([]Batch{b}, s.shape); err != nil {
		return nil, err
	}
	if c.Len() == 0 {
		return &WriteReport{}, nil
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
	kind := s.kind.String()
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
	// slow-query log. Candidates counts the fragments whose bounding box
	// meets the target (Fragments = Candidates - tombstones - FilterSkipped);
	// FilterSkipped counts candidates the per-fragment filters dismissed
	// without a fetch: for a probe the box and then the key filter, for
	// a window the coordinate filter.
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

// Add folds another read's report into r: a chunked store's tile, a
// router's shard. Every duration and count sums, epochs included (a
// change counter, as Chunked.Epoch is). Shards is left alone: fan-out
// is the folding caller's to state.
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
// target's bounding box, which filter predicate dismisses a fragment,
// and how a fetched fragment is extracted. A point read (and a
// StrategyDefault region read, whose cells are its probe list) looks
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
func (s *Store) planRead(req QueryRequest) (pl readPlan) {
	if req.Probe != nil {
		pl.probe = req.Probe
		if req.Probe.Len() == 1 {
			p := req.Probe.At(0) // a point is its own box
			pl.box = tensor.BBox{Min: p, Max: p}
		} else {
			pl.box, _ = req.Probe.Bounds() // an empty probe reads nothing, see readView
		}
		return pl
	}
	region, ok := s.clip(req.Region)
	if !ok {
		return s.readsNothing()
	}
	pl.box = region.BBox()
	if req.Strategy == StrategyScan {
		pl.region = region
		return pl
	}
	pl.vol, _ = region.Volume() // a window of a shape whose volume fits
	if req.Strategy == StrategyAuto {
		pl.region, pl.auto = region, true
	} else {
		pl.probe = region.Coords()
	}
	return pl
}

// scanPlan is the plan of a read that walks stored points instead of
// probing: every point of every fragment when region is nil (exports,
// compaction, whole-store kernels), the points inside region otherwise.
func (s *Store) scanPlan(region *tensor.Region) readPlan {
	if region == nil {
		whole := tensor.Region{Start: make([]uint64, s.shape.Dims()), Size: s.shape}
		return readPlan{box: whole.BBox()}
	}
	clip, ok := s.clip(region)
	if !ok {
		return s.readsNothing()
	}
	return readPlan{box: clip.BBox(), region: clip}
}

// clip intersects a request's region with the store's shape — the
// one-tile case of Tiling.Clip, so a flat store reads a window exactly
// as Chunked and serve.Router do: an extent that wraps past MaxUint64
// or reaches past the shape ends at the shape's edge. ok is false when
// no cell is left. A region already inside the shape (every tile's
// share of a chunked request) comes back as is, allocating nothing.
func (s *Store) clip(region *tensor.Region) (*tensor.Region, bool) {
	for d, n := range s.shape {
		if start, size := region.Start[d], region.Size[d]; size == 0 || start >= n || size > n-start {
			clip, ok := Tiling{Shape: s.shape, Tile: s.shape}.Clip(*region, make([]uint64, len(s.shape)))
			return &clip, ok
		}
	}
	return region, true
}

// readsNothing is the plan of a window that covers no cell: an empty
// probe, which readView answers without looking at a fragment.
func (s *Store) readsNothing() readPlan {
	return readPlan{probe: tensor.NewCoords(s.shape.Dims(), 0)}
}

// mayHold asks fr whether the fragment can hold any of the target: a
// window asks the coordinate filter for its range; a probe point asks
// the bounding box, then the key filter by its linear address under
// lin. A missing filter answers "maybe". Filters have no false
// negatives, so false lets the loop skip the fragment without a fetch.
func (pl *readPlan) mayHold(fr *fragRef, lin *tensor.Linearizer) bool {
	switch {
	case pl.region != nil:
		return fr.filter == nil || fr.filter.MayOverlapRegion(*pl.region)
	case pl.probe != nil:
		for i, n := 0, pl.probe.Len(); i < n; i++ {
			p := pl.probe.At(i)
			if fr.bbox.Contains(p) && (fr.keys == nil || fr.keys.MayContain(lin.Linearize(p))) {
				return true
			}
		}
		return false
	}
	return true
}

// scans decides how fr is extracted, materializing the region's cells
// the first time a fragment is to be probed.
func (pl *readPlan) scans(s *Store, fr *fragRef) bool {
	if pl.region == nil {
		return pl.probe == nil
	}
	if !pl.auto || preferScan(s.kind, s.shape, fr.nnz, pl.vol) {
		return true
	}
	if pl.probe == nil {
		pl.probe = pl.region.Coords()
	}
	return false
}

// readAcc is where a read's per-fragment extraction lands, one per
// request.
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
		scanFragment(e.Reader, pl.region, func(p []uint64, slot int) bool {
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
	acc.rep.Probe += time.Since(t)
	return nil
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
	res, rep, _, err := s.readView(ctx, v, limit, s.planRead(req), nil)
	return res, rep, err
}

// readView is Algorithm 3's READ and the store's only fragment loop:
// among the first limit fragments of v, take those whose bounding box
// overlaps the target, skip those the fragment filters rule out,
// fetch and extract each survivor, then merge the hits by linear
// address — newest fragment wins, cells under a later tombstone are
// dead — handing each live cell to emit (a nil emit collects them in
// the returned Result). What varies is the readPlan and the emitter;
// the fragments are read one after another on the calling goroutine.
//
// Cancellation is checked once per candidate fragment: a canceled read
// fetches no further fragment and returns ctx.Err().
func (s *Store) readView(ctx context.Context, v *readView, limit int, pl readPlan, emit emitFunc) (*Result, *ReadReport, liveCounts, error) {
	acc := &readAcc{rep: ReadReport{Epoch: v.epoch}}
	rep := &acc.rep
	s.takeCost()
	reg := s.obsReg()
	kind := s.kind.String()
	root, _ := reg.StartCtx(ctx, obsRead)
	defer root.End()
	if pl.probe != nil && pl.probe.Len() == 0 {
		return &Result{Coords: tensor.NewCoords(s.shape.Dims(), 0)}, rep, liveCounts{}, nil
	}

	// The candidates are the fragments whose box meets the target's: a
	// linear scan of the boxes. The sub-linear step is one level up,
	// where Chunked's tiling finds a request's tiles arithmetically and
	// each tile's view holds only that tile's fragments.
	var err error
	var tombs []tombstoneRef
	for fi := range v.frags[:limit] {
		fr := &v.frags[fi]
		if (fr.nnz == 0 && !fr.tomb) || !fr.bbox.Overlaps(pl.box) {
			continue
		}
		rep.Candidates++
		if fr.tomb {
			// A tombstone's box is its region's, so every tombstone that
			// can kill a hit is among the candidates. It joins at the
			// merge, not the fragment loop.
			tombs = append(tombs, tombstoneRef{idx: fi, region: fr.tombRegion})
			continue
		}
		if err = ctx.Err(); err != nil {
			break
		}
		if !pl.mayHold(fr, s.lin) {
			rep.FilterSkipped++
			continue
		}
		rep.Fragments++
		if err = s.readFragment(root, fi, fr, &pl, pl.scans(s, fr), acc); err != nil {
			break
		}
	}
	reg.Counter("store.index.probes", "kind", kind).Inc()
	reg.Counter("store.index.candidates", "kind", kind).Add(int64(rep.Candidates))
	if err != nil {
		return nil, nil, liveCounts{}, err
	}
	if rep.FilterSkipped > 0 {
		reg.Counter("store.filter.skipped", "kind", kind).Add(int64(rep.FilterSkipped))
	}

	sp := root.Child(obsReadMerge)
	res, live, mergeDur := mergeHits(s, acc.hits, tombs, emit)
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

// sortHits returns the permutation that orders hits by (addr, frag,
// index). Ties on (addr, frag) fall through to the index, the order
// the fragment was extracted in. Such ties are a point probed twice
// (equal values) or a point written twice into one fragment, which a
// scan extracts in payload order: the later entry is the later write,
// and it wins, as a probe's Lookup answers with it. A plain
// SortPermByKey on the address would lose the fragment-recency
// tie-break that newest-wins depends on.
func sortHits(hits []hit) []int {
	return psort.SortPerm(len(hits), 0, func(a, b int) bool {
		if hits[a].addr != hits[b].addr {
			return hits[a].addr < hits[b].addr
		}
		if hits[a].frag != hits[b].frag {
			return hits[a].frag < hits[b].frag
		}
		return a < b
	})
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
// stored cell is judged live: order hits by linear address (ties by
// fragment recency, then extraction order), keep the last value per
// cell, drop cells whose last write precedes a covering tombstone,
// and hand what is left to emit in address order. With a nil emit the
// live cells are appended to the returned Result; a kernel passes its
// fold and no Result exists. Hits that already lie in that order — one
// run, as a point probe's are — merge where they lie; others go
// through a psort permutation sort, so large merges (region reads
// pulling millions of hits) use every core and small ones stay serial
// under psort's cutoff.
func mergeHits(s *Store, hits []hit, tombs []tombstoneRef, emit emitFunc) (*Result, liveCounts, time.Duration) {
	t := time.Now()
	var perm []int
	for i := 1; i < len(hits); i++ {
		if a, b := &hits[i-1], &hits[i]; a.addr > b.addr || (a.addr == b.addr && a.frag > b.frag) {
			perm = sortHits(hits)
			break
		}
	}
	at := func(i int) *hit {
		if perm != nil {
			return &hits[perm[i]]
		}
		return &hits[i]
	}
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
	for i := range hits {
		h := at(i)
		if i+1 < len(hits) && at(i+1).addr == h.addr {
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
		kind := s.kind.String()
		reg.Counter("store.merge.overwritten", "kind", kind).Add(live.overwritten)
		reg.Counter("store.merge.tombstone_dead", "kind", kind).Add(live.dead)
	}
	return out, live, time.Since(t)
}
