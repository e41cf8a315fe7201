package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
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
func (s *tile) tombstonesBefore(limit int) []tombstoneRef {
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

// tile is one tile's fragment store, the engine under Store: Algorithm
// 3's WRITE and READ over one fragment list in one linear address
// space, with its manifest and log, its MVCC views, compaction and GC.
// A flat store is one tile whose files lie at the store's prefix; a
// tiled store keeps one per materialized tile, each in a directory
// named after it. The settings it reads (file system, organization,
// options, reader cache, compaction gate) are its Store's config.
type tile struct {
	*config
	prefix string
	// scope labels this tile's reader-cache traffic: the tile's name in
	// a tiled store, "" (unlabeled) in a flat one.
	scope string
	// codec and shape are the tile's persisted properties, recorded in
	// its manifest: the config's codec at creation, the manifest's on
	// open. shape is the tile's extent (an edge tile is clipped).
	codec compress.ID
	shape tensor.Shape
	lin   *tensor.Linearizer
	// frags is the writer's working fragment list, guarded by writeMu.
	// Readers never touch it: they go through the published snapshot
	// (see view.go). Every durable mutation ends with publishLocked.
	frags  []fragRef
	nextID uint64

	// MVCC state (view.go). writeMu serializes all mutations — writes,
	// deletions, ingest commits, compaction, checkpoints. viewMu guards
	// the snapshot pointer, pin counts, and the deferred-GC queue; lock
	// order is writeMu before viewMu, never the reverse.
	writeMu   sync.Mutex
	viewMu    sync.Mutex
	cur       *readView
	pinned    map[*readView]struct{}
	viewRefs  int
	gcPending []pendingGC

	// Background compaction (maintenance.go): when compactAt > 0,
	// publishing a view with at least that many fragments spawns one
	// compaction worker (bgRunning dedupes). Close waits on bgWG.
	bgRunning atomic.Bool
	bgWG      sync.WaitGroup

	// Manifest-log state (see manifest.go): the number of records
	// currently in MANIFEST.LOG, and the fragment count at the last
	// checkpoint (the adaptive cadence's threshold). staged buffers
	// framed records awaiting a group-commit flush (stagedRecs
	// fragments' worth, appended in one fs.Append).
	logRecords    int
	lastCkptFrags int
	staged        []byte
	stagedRecs    int
}

// create writes the empty tile's first checkpoint and publishes its
// first view.
func (s *tile) create() error {
	lin, err := tensor.NewLinearizer(s.shape, tensor.RowMajor)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.lin = lin
	if err := s.writeManifest(); err != nil {
		return err
	}
	s.initViews()
	return nil
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

// readManifest reads and decodes the checkpoint under prefix; a
// missing one is ErrNotFound.
func readManifest(fs fsim.FS, prefix string) (*manifestState, error) {
	data, err := fs.ReadFile(prefix + "/" + manifestName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	return decodeManifest(data)
}

// open restores the tile from its decoded checkpoint m: the manifest's
// codec and shape are authoritative, the log replays over the
// checkpoint, an SMN2 checkpoint folds to SMN3, and fragment files the
// manifest does not reference are swept before the first view
// publishes.
func (s *tile) open(m *manifestState) error {
	lin, err := tensor.NewLinearizer(m.shape, tensor.RowMajor)
	if err != nil {
		return fmt.Errorf("store: manifest: %w: %w", fragment.ErrCorrupt, err)
	}
	s.codec, s.shape, s.lin = m.codec, m.shape, lin
	s.frags, s.nextID = m.frags, m.nextID
	s.lastCkptFrags = len(s.frags)
	// The checkpoint reflects the last fold; fragments committed since
	// live in the delta log. After a Close there is no log file.
	if err := s.replayLog(); err != nil {
		return err
	}
	// An SMN2 checkpoint is folded to SMN3 before any key-carrying
	// record can join its log: a build that reads SMN2 only refuses the
	// store by name instead of truncating those records as a torn tail.
	if m.version == 2 {
		if err := s.checkpoint(); err != nil {
			return err
		}
	}
	// With the manifest settled, sweep fragment files it does not
	// reference — crash debris from a compaction swap or a rolled-back
	// write — then publish the first snapshot.
	s.gcOrphans()
	s.initViews()
	return nil
}

// writeManifest writes the full-state checkpoint (SMN3, docs/FORMATS.md
// §2): the store's properties, one entry per fragment with a flags byte
// (bit 0 tombstone, bit 1 coordinate filter present, bit 2 key filter
// present, each filter blob following in that order), an
// index-presence byte of 0 (no index section), and the CRC32 of every
// byte before it.
func (s *tile) writeManifest() error {
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

// fragments returns the number of fragments in the current snapshot.
func (s *tile) fragments() int { return len(s.currentFrags()) }

func totalFragBytes(frags []fragRef) int64 {
	var total int64
	for _, fr := range frags {
		total += fr.bytes
	}
	return total
}

// stats summarizes the tile from its manifest alone (no fragment
// reads).
func (s *tile) stats() StoreStats {
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

// Add folds another write's report into r — a store's tiles, a
// router's shards. Everything sums, epochs included (a change counter,
// as Store.Epoch is); Name keeps the first fragment named.
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

// deleteRegion marks every cell of a tile-local region as deleted. The
// deletion is log-structured: it appends a tombstone record to the
// manifest delta log (MANIFEST.LOG) — no fragment file is written.
// Earlier data stays on disk (and remains visible to as-of queries)
// until a compaction folds the tombstone in. The report's Write phase
// is the log append; Bytes is the framed record's size.
func (s *tile) deleteRegion(region tensor.Region) (*WriteReport, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	rep := &WriteReport{}
	s.takeCost()

	reg := s.obsReg()
	kind := s.kind.String()

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
	return rep, nil
}

// ReadReport is the per-phase breakdown of one READ.
type ReadReport struct {
	IO        time.Duration // fetching fragment files
	Extract   time.Duration // decoding fragments and unpacking indexes
	Probe     time.Duration // organization-specific existence queries
	Merge     time.Duration // sorting results by linear address
	Fragments int           // fragments overlapping the query
	Probed    int           // points looked up, plus stored points a scan visited in the window
	Found     int
	// Scans counts fragments answered by scan: every fragment under
	// StrategyScan, those the cost model sent to scan otherwise.
	Scans int
	// Epoch is the manifest epoch this read pinned: the snapshot it
	// executed against. Concurrent mutations never change a pinned
	// snapshot, so a one-tile read is exactly the store's state at
	// Epoch; a read of several tiles pins each in turn and sums their
	// epochs.
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

// Add folds another read's report into r: a store's tile, a router's
// shard. Every duration and count sums, epochs included (a change
// counter, as Store.Epoch is). Shards is left alone: fan-out
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
// and how a fetched fragment is extracted. A probe read looks every
// probe point up; a region read picks lookup or scan per fragment
// (StrategyScan forces the scan); an export, with neither probe nor
// region, walks every stored point.
type readPlan struct {
	box    tensor.BBox
	probe  *tensor.Coords // points to look up; for a region read, nil until a fragment probes
	region *tensor.Region // window to scan; nil for lookup-only reads and exports
	auto   bool           // choose lookup or scan per fetched fragment by preferScan
	vol    uint64         // region volume: preferScan's n_read
	// retiring marks a read of fragments about to be retired (a
	// compaction's export): it uses resident cache entries but inserts
	// none of what it loads.
	retiring bool
}

// planRead derives the plan from a validated request.
func (s *tile) planRead(req QueryRequest) (pl readPlan) {
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
	pl.box, pl.region = req.Region.BBox(), req.Region
	if req.Strategy == StrategyAuto {
		pl.vol, _ = req.Region.Volume() // a window of a shape whose volume fits
		pl.auto = true
	}
	return pl
}

// scanPlan is the plan of a read that walks stored points instead of
// probing: every point of every fragment when region is nil (exports,
// compaction, whole-store kernels), the points inside region otherwise.
func (s *tile) scanPlan(region *tensor.Region) readPlan {
	if region == nil {
		whole := tensor.Region{Start: make([]uint64, s.shape.Dims()), Size: s.shape}
		return readPlan{box: whole.BBox()}
	}
	return readPlan{box: region.BBox(), region: region}
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

// scans decides how the fetched fragment e is extracted, materializing
// the region's cells the first time a fragment is to be probed. A
// planned read prices both sides on the fragment actually opened: its
// own kind and point count, and the share of its box the reader's
// region walk reaches.
func (pl *readPlan) scans(s *tile, fr *fragRef, e *fragcache.Entry) bool {
	if pl.region == nil {
		return pl.probe == nil
	}
	if !pl.auto {
		return true
	}
	share := e.Reader.(core.RegionScanner).ScanShare(*pl.region, fr.bbox)
	if preferScan(e.Header.Kind, s.shape, uint64(e.Reader.NNZ()), pl.vol, share) {
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
// from it into acc, by scan or by point lookup as pl.scans decides.
func (s *tile) readFragment(root *obs.Span, fi int, fr *fragRef, pl *readPlan, acc *readAcc) error {
	e, err := s.fetchFragment(root, *fr, pl, &acc.rep)
	if err != nil {
		return err
	}
	scan := pl.scans(s, fr, e)
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

// read answers a validated request, its region (if any) inside the
// tile's shape (Store.tilesIn clips it), against a pinned view of the
// tile's version the request names.
func (s *tile) read(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
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
func (s *tile) readView(ctx context.Context, v *readView, limit int, pl readPlan, emit emitFunc) (*Result, *ReadReport, liveCounts, error) {
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
	// where the Store's tiling finds a request's tiles arithmetically and
	// each tile's view holds only that tile's fragments.
	if pl.region == nil && pl.probe == nil {
		// A whole-store scan (an export, a compaction, a whole-store
		// kernel) extracts every stored point: size the hits once.
		var n uint64
		for fi := range v.frags[:limit] {
			n += v.frags[fi].nnz
		}
		acc.hits = make([]hit, 0, n)
	}
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
		if err = s.readFragment(root, fi, fr, &pl, acc); err != nil {
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

// radixBits is the digit width of orderHits' address sort: 2¹¹
// counters fit in L1, and a 64³ tile's 18-bit addresses take two passes.
const radixBits = 11

// orderHits returns hits ordered by linear address, stably. readView
// appends hits fragment by fragment, oldest first, each fragment's in
// the order it was extracted, so a stable order by address is the
// (addr, frag, extraction index) order newest-wins depends on: among a
// cell's hits the newest fragment's comes last, and within one fragment
// the later of two writes of a cell, which a scan extracts in payload
// order (COO keeps a batch's duplicates) and a probe's Lookup answers
// with. Hits already in order (one run, as a point probe's are) come
// back as they lie; others take an LSD radix sort over radixBits-bit
// digits, as many passes as the largest address needs, ping-ponging
// between hits and one scratch buffer. No comparison is made.
func orderHits(hits []hit) []hit {
	var span uint64
	sorted := true
	for i := range hits {
		span |= hits[i].addr
		if i > 0 && hits[i-1].addr > hits[i].addr {
			sorted = false
		}
	}
	if sorted {
		return hits
	}
	const mask = 1<<radixBits - 1
	var count [1 << radixBits]int
	src, dst := hits, make([]hit, len(hits))
	for shift := 0; shift < bits.Len64(span); shift += radixBits {
		clear(count[:])
		for i := range src {
			count[src[i].addr>>shift&mask]++
		}
		if count[src[0].addr>>shift&mask] == len(src) {
			continue // every hit has this digit: the pass would move nothing
		}
		at := 0
		for d, n := range count {
			count[d] = at
			at += n
		}
		for i := range src {
			d := src[i].addr >> shift & mask
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	return src
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
// stored cell is judged live: order hits by linear address (orderHits:
// ties by fragment recency, then extraction order), keep the last value
// per cell, drop cells whose last write precedes a covering tombstone,
// and hand what is left to emit in address order. With a nil emit the
// live cells are appended to the returned Result; a kernel passes its
// fold and no Result exists.
func mergeHits(s *tile, hits []hit, tombs []tombstoneRef, emit emitFunc) (*Result, liveCounts, time.Duration) {
	t := time.Now()
	hits = orderHits(hits)
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
		h := &hits[i]
		if i+1 < len(hits) && hits[i+1].addr == h.addr {
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
