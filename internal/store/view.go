package store

import (
	"errors"
	iofs "io/fs"
	"math"
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
// Each view also carries the epoch's tombstone count, so the read paths
// can skip the tombstone overlap scan entirely on tombstone-free
// stores.
type readView struct {
	s     *tile
	epoch uint64
	frags []fragRef
	tombs int
	refs  int
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
func (s *tile) acquireView() *readView {
	s.viewMu.Lock()
	v := s.cur
	v.refs++
	s.viewRefs++
	if v.refs == 1 {
		s.pinned[v] = struct{}{}
	}
	active := s.viewRefs
	s.viewMu.Unlock()
	s.obsReg().Gauge("store.views.active", "kind", s.kind.String()).Set(int64(active))
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
	s.obsReg().Gauge("store.views.active", "kind", s.kind.String()).Set(int64(active))
	s.runGC(due)
}

// initViews installs the first snapshot. Called once by Create/Open
// before the store is shared.
func (s *tile) initViews() {
	s.pinned = map[*readView]struct{}{}
	frags := append([]fragRef(nil), s.frags...)
	s.cur = &readView{s: s, epoch: 0, frags: frags, tombs: countTombs(frags)}
}

// publishLocked snapshots s.frags as the new current view under a fresh
// epoch. Caller holds writeMu; the previous view stays valid for the
// readers still holding it. Returns the new epoch.
func (s *tile) publishLocked() uint64 {
	frags := append([]fragRef(nil), s.frags...)
	v := &readView{s: s, frags: frags, tombs: countTombs(frags)}
	s.viewMu.Lock()
	epoch := s.cur.epoch + 1
	v.epoch = epoch
	s.cur = v
	s.viewMu.Unlock()
	reg, kind := s.obsReg(), s.kind.String()
	reg.Gauge("store.epoch", "kind", kind).Set(int64(epoch))
	reg.Gauge("store.fragments", "kind", kind).Set(int64(len(frags)))
	s.maybeCompactBackground(len(frags))
	return epoch
}

// currentEpoch returns the epoch of the current view — the epoch a read
// issued now would pin.
func (s *tile) currentEpoch() uint64 {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	return s.cur.epoch
}

// currentFrags returns the published fragment list (the snapshot a read
// issued now would see). The slice is immutable.
func (s *tile) currentFrags() []fragRef {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	return s.cur.frags
}

// retire schedules the given fragment files for deletion: they left the
// manifest at the current epoch, so they are deletable once every view
// pinning an older epoch drains — immediately, when none is live.
// Caller holds writeMu.
func (s *tile) retire(names []string) {
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
func (s *tile) collectDueLocked() []pendingGC {
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
	s.obsReg().Gauge("store.gc.pending", "kind", s.kind.String()).Set(int64(len(keep)))
	return due
}

// runGC physically deletes retired fragment files: their cache entries
// are invalidated (epoch-scoped invalidation — entries live exactly as
// long as some view can still read their fragment) and the files
// removed. A missing file is fine (another handle or Open's orphan
// collection got there first); other removal errors leave the file as
// an orphan for the next Open and are counted.
func (s *tile) runGC(batches []pendingGC) {
	if len(batches) == 0 {
		return
	}
	reg := s.obsReg()
	kind := s.kind.String()
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
func (s *tile) gcOrphans() {
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
	kind := s.kind.String()
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
