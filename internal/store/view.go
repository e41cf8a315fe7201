package store

import (
	"errors"
	iofs "io/fs"
	"math"

	"sparseart/internal/tensor"
)

// MVCC snapshot reads. The store's fragment set is published to readers
// as immutable, reference-counted snapshots (readView): every read path
// acquires the current view, probes its fragment list without holding
// any store-wide lock, and releases it when done. Mutations — Write,
// DeleteRegion, batched ingest flushes, Compact's swap — build the next
// fragment list under the writer lock and publish it as a fresh view
// with a monotonically increasing epoch. Readers therefore never block
// on writers or on compaction, and a read's result always reflects
// exactly one epoch — never a half-swapped fragment set.
//
// Fragment files are immutable once published and fragment names are
// never reused (the id sequence is monotonic), so append-only epochs
// share the files on disk. Only Compact removes files: the superseded
// names are retired at the swap epoch and physically deleted — cache
// entries invalidated, files removed — when the last view pinning an
// older epoch drains. A crash between the swap and the deferred
// deletion leaves orphan files, which Open detects and collects (see
// gcOrphans).
//
// Lock order: writeMu (writers only) before viewMu. viewMu is held only
// for pointer/counter bookkeeping — never across I/O.

// readView is one immutable snapshot of the fragment set, pinned at the
// epoch it was published. The fragment slice is never mutated after
// publication; refs counts outstanding acquisitions and is guarded by
// Store.viewMu.
//
// Each view also carries the epoch's spatial index (index.go) — the
// overlap search — and the epoch's tombstone count, so the read paths
// can skip the tombstone overlap scan entirely on tombstone-free
// stores.
type readView struct {
	s     *Store
	epoch uint64
	frags []fragRef
	index *fragIndex
	tombs int
	refs  int
}

// overlapping returns the ascending indices of the fragments among
// frags[:limit] that carry a bounding box overlapping box — data
// fragments and tombstones both: a grid lookup, then a bbox re-check of
// each candidate. The grid only ever over-approximates, so the result
// is exactly what a linear scan of the prefix would list (the tests'
// oracle, linearOverlap).
func (v *readView) overlapping(box tensor.BBox, limit int) []int {
	if limit > len(v.frags) {
		limit = len(v.frags)
	}
	cand := v.index.lookup(box, limit)
	reg := v.s.obsReg()
	kind := v.s.curKind().String()
	reg.Counter("store.index.probes", "kind", kind).Inc()
	reg.Counter("store.index.candidates", "kind", kind).Add(int64(len(cand)))
	out := cand[:0]
	for _, i := range cand {
		fr := &v.frags[i]
		if (fr.nnz > 0 || fr.tomb) && fr.bbox.Overlaps(box) {
			out = append(out, i)
		}
	}
	return out
}

// overlapTombs extracts the tombstones from an overlapping() result.
// Valid because a tombstone's fragRef bbox IS its region's bounding box
// (see DeleteRegion), so the candidate set already saw every tombstone
// a dedicated linear scan of the prefix would. The v.tombs == 0
// short-circuit makes tombstone handling free on append-only stores.
func (v *readView) overlapTombs(cands []int) []tombstoneRef {
	if v.tombs == 0 {
		return nil
	}
	var out []tombstoneRef
	for _, i := range cands {
		if fr := &v.frags[i]; fr.tomb {
			out = append(out, tombstoneRef{idx: i, region: fr.tombRegion})
		}
	}
	return out
}

// countTombs counts tombstone fragments in a slice.
func countTombs(frags []fragRef) int {
	n := 0
	for i := range frags {
		if frags[i].tomb {
			n++
		}
	}
	return n
}

// pendingGC is a batch of fragment files superseded at a swap epoch:
// deletable once no live view pins an epoch older than the swap.
type pendingGC struct {
	epoch uint64
	names []string
}

// acquireView pins the current snapshot for one read. The caller must
// release it (views drain deferred deletions).
func (s *Store) acquireView() *readView {
	s.viewMu.Lock()
	v := s.cur
	v.refs++
	s.viewRefs++
	if v.refs == 1 {
		s.pinned[v] = struct{}{}
	}
	active := s.viewRefs
	s.viewMu.Unlock()
	s.obsReg().Gauge("store.views.active", "kind", s.curKind().String()).Set(int64(active))
	return v
}

// release drops one pin. When the last pin of the oldest epoch drains,
// any deferred fragment deletions that epoch was holding back run.
func (v *readView) release() {
	s := v.s
	s.viewMu.Lock()
	v.refs--
	s.viewRefs--
	if v.refs == 0 {
		delete(s.pinned, v)
	}
	active := s.viewRefs
	due := s.collectDueLocked()
	s.viewMu.Unlock()
	s.obsReg().Gauge("store.views.active", "kind", s.curKind().String()).Set(int64(active))
	s.runGC(due)
}

// initViews installs the first snapshot. Called once by Create/Open
// before the store is shared. The first view's grid either extends the
// index persisted in the manifest checkpoint (loadedIndex, already
// validated; the suffix covers replayed log records) or is rebuilt from
// the fragment list.
func (s *Store) initViews() {
	s.pinned = map[*readView]struct{}{}
	frags := append([]fragRef(nil), s.frags...)
	v := &readView{s: s, epoch: 0, frags: frags, tombs: countTombs(frags)}
	if li := s.loadedIndex; li != nil && li.n <= len(frags) {
		v.index = li.appended(frags, li.n)
	} else {
		v.index = buildFragIndex(s.shape, frags)
	}
	s.loadedIndex = nil
	s.cur = v
}

// publishLocked snapshots s.frags as the new current view under a fresh
// epoch. Caller holds writeMu; the previous view stays valid for the
// readers still holding it. Returns the new epoch.
//
// The new epoch's spatial index is built copy-on-write from the
// previous view's: every mutation path except compaction only appends
// fragments, so the common case shares all untouched grid buckets and
// inserts only the new suffix. Compaction rewrites the list (it
// shrinks), which the prefix check detects and answers with a full
// rebuild. Reading s.cur without viewMu is safe here: every write to
// s.cur happens under writeMu, which the caller holds.
func (s *Store) publishLocked() uint64 {
	frags := append([]fragRef(nil), s.frags...)
	prev := s.cur
	v := &readView{s: s, frags: frags}
	if prev != nil && len(frags) >= len(prev.frags) && samePrefixBoundary(prev.frags, frags) {
		v.tombs = prev.tombs + countTombs(frags[len(prev.frags):])
		v.index = prev.index.appended(frags, len(prev.frags))
	} else {
		v.tombs = countTombs(frags)
		v.index = buildFragIndex(s.shape, frags)
	}
	s.viewMu.Lock()
	epoch := s.cur.epoch + 1
	v.epoch = epoch
	s.cur = v
	s.viewMu.Unlock()
	s.obsReg().Gauge("store.epoch", "kind", s.curKind().String()).Set(int64(epoch))
	s.maybeCompactAsync(len(frags))
	return epoch
}

// samePrefixBoundary reports whether next still starts with prev — the
// append-only fast path. Comparing the last shared element suffices:
// the only mutation that rewrites earlier entries (compaction) replaces
// the whole list with freshly built fragRefs, whose bbox slices are new
// allocations, so the slice-identity check below cannot be fooled by a
// rewritten list that happens to repeat the same name.
func samePrefixBoundary(prev, next []fragRef) bool {
	k := len(prev)
	if k == 0 {
		return true
	}
	a, b := &prev[k-1], &next[k-1]
	return a.name == b.name && a.nnz == b.nnz && a.bytes == b.bytes && a.tomb == b.tomb &&
		sameU64Slice(a.bbox.Min, b.bbox.Min) && sameU64Slice(a.bbox.Max, b.bbox.Max)
}

// sameU64Slice is slice-header identity (same backing array, length),
// not element equality — fragRef copies share bbox backing arrays.
func sameU64Slice(x, y []uint64) bool {
	if len(x) != len(y) {
		return false
	}
	return len(x) == 0 || &x[0] == &y[0]
}

// currentEpoch returns the epoch of the current view — the epoch a read
// issued now would pin.
func (s *Store) currentEpoch() uint64 {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	return s.cur.epoch
}

// currentFrags returns the published fragment list (the snapshot a read
// issued now would see). The slice is immutable.
func (s *Store) currentFrags() []fragRef {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	return s.cur.frags
}

// retire schedules the given fragment files for deletion: they left the
// manifest at the current epoch, so they are deletable once every view
// pinning an older epoch drains — immediately, when none is live.
// Caller holds writeMu.
func (s *Store) retire(names []string) {
	if len(names) == 0 {
		return
	}
	s.viewMu.Lock()
	s.gcPending = append(s.gcPending, pendingGC{epoch: s.cur.epoch, names: names})
	due := s.collectDueLocked()
	s.viewMu.Unlock()
	s.runGC(due)
}

// collectDueLocked splits off the pending batches no live view can
// still reference: those whose swap epoch is at or below the oldest
// pinned epoch. Caller holds viewMu; exactly one caller receives each
// batch, so deletions never race.
func (s *Store) collectDueLocked() []pendingGC {
	if len(s.gcPending) == 0 {
		return nil
	}
	oldest := uint64(math.MaxUint64)
	for v := range s.pinned {
		if v.epoch < oldest {
			oldest = v.epoch
		}
	}
	var due, keep []pendingGC
	for _, p := range s.gcPending {
		if oldest >= p.epoch {
			due = append(due, p)
		} else {
			keep = append(keep, p)
		}
	}
	s.gcPending = keep
	s.obsReg().Gauge("store.gc.pending", "kind", s.curKind().String()).Set(int64(len(keep)))
	return due
}

// runGC physically deletes retired fragment files: their cache entries
// are invalidated (epoch-scoped invalidation — entries live exactly as
// long as some view can still read their fragment) and the files
// removed. A missing file is fine (another handle or Open's orphan
// collection got there first); other removal errors leave the file as
// an orphan for the next Open and are counted.
func (s *Store) runGC(batches []pendingGC) {
	if len(batches) == 0 {
		return
	}
	reg := s.obsReg()
	kind := s.curKind().String()
	for _, b := range batches {
		s.cache.Invalidate(b.names...)
		for _, name := range b.names {
			if err := s.fs.Remove(name); err != nil && !errors.Is(err, iofs.ErrNotExist) {
				reg.Counter("store.gc.errors", "kind", kind).Inc()
				continue
			}
			reg.Counter("store.gc.deferred", "kind", kind).Inc()
		}
	}
}

// gcOrphans removes fragment files the manifest does not reference — the
// debris of a crash between a compaction's swap and its deferred
// deletion, or of a write whose manifest record never became durable.
// Best-effort: called by Open after the log replays, before the first
// view publishes; a failure to list or remove leaves the orphan for the
// next Open.
func (s *Store) gcOrphans() {
	names, err := s.fs.List(s.prefix + "/frag-")
	if err != nil {
		return
	}
	live := make(map[string]struct{}, len(s.frags))
	for _, fr := range s.frags {
		if fr.name != "" {
			live[fr.name] = struct{}{}
		}
	}
	reg := s.obsReg()
	kind := s.curKind().String()
	var removed int64
	for _, name := range names {
		if _, ok := live[name]; ok {
			continue
		}
		if err := s.fs.Remove(name); err != nil {
			reg.Counter("store.gc.errors", "kind", kind).Inc()
			continue
		}
		removed++
	}
	if removed > 0 {
		reg.Counter("store.gc.orphans", "kind", kind).Add(removed)
	}
}
