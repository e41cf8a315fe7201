package store

import (
	"context"
	"time"

	"sparseart/internal/tensor"
)

// This file holds the engine's maintenance operations, built on the
// core.Iterator contract every organization's reader implements:
// fragment consolidation (the TileDB-style answer to the fragment
// accumulation Algorithm 3's append-only WRITE causes) and whole-store
// export. Compact runs under the writer lock but never blocks readers:
// it builds the consolidated fragment off to the side, swaps it in as a
// new snapshot epoch, and defers deleting the superseded files until
// the last reader pinning an older epoch drains (see view.go). A Chunked
// store's tile runs the pass on a background worker once it holds
// defaultCompactAt fragments, one tile at a time per Chunked store;
// WithBackgroundCompaction moves the threshold, and turns the worker on
// for a flat store.

// ExportAll returns the store's full logical contents — every live
// cell after overlap and tombstone resolution — sorted by linear
// address. Fragments resolve through the reader cache, so an export
// right after reads iterates resident indexes without re-fetching.
func (s *Store) ExportAll() (*tensor.Coords, []float64, error) {
	v := s.acquireView()
	defer v.release()
	return s.exportView(v, s.scanPlan(nil))
}

// exportView materializes the live contents of a view: a READ under a
// whole-store scan plan (scanPlan(nil)), every fragment scanned in full.
func (s *Store) exportView(v *readView, pl readPlan) (*tensor.Coords, []float64, error) {
	res, _, _, err := s.readView(context.Background(), v, len(v.frags), pl, nil)
	if err != nil {
		return nil, nil, err
	}
	return res.Coords, res.Values, nil
}

// CompactReport summarizes a consolidation.
type CompactReport struct {
	FragmentsBefore, FragmentsAfter int
	PointsBefore, PointsAfter       int // PointsBefore counts duplicates across fragments
	BytesBefore, BytesAfter         int64
}

// Compact consolidates all fragments into one, resolving overlapping
// writes (newest wins) and reclaiming the space of superseded cells.
// The consolidated fragment is built in the store's organization, which
// is fixed at Create (Convert writes a new store in another). A store
// with zero or one fragment is returned unchanged.
//
// Compaction holds the writer lock (it serializes against writes and
// deletes) but readers are never blocked: they keep serving from the
// pre-compaction snapshot until the consolidated fragment's epoch is
// published, and the superseded files are physically deleted only when
// the last view pinning an older epoch drains.
func (s *Store) Compact() (*CompactReport, error) {
	reg := s.obsReg()
	kind := s.kind.String()
	inflight := reg.Gauge("store.compact.inflight", "kind", kind)
	inflight.Add(1)
	defer inflight.Add(-1)
	s.writeMu.Lock()
	locked := time.Now()
	defer func() {
		held := time.Since(locked)
		s.writeMu.Unlock()
		reg.Counter("store.compact.lock_us", "kind", kind).Add(held.Microseconds())
	}()
	root := reg.Start("store.compact")
	defer root.End()
	reg.Counter("store.compact.count", "kind", kind).Inc()
	rep := &CompactReport{
		FragmentsBefore: len(s.frags),
		BytesBefore:     totalFragBytes(s.frags),
	}
	for _, fr := range s.frags {
		rep.PointsBefore += int(fr.nnz)
	}
	if len(s.frags) <= 1 {
		rep.FragmentsAfter = len(s.frags)
		rep.PointsAfter = rep.PointsBefore
		rep.BytesAfter = rep.BytesBefore
		return rep, nil
	}
	// A view over the writer's working list needs no pin: the writer
	// lock is held, so nothing retires these files before this pass does.
	working := &readView{s: s, frags: s.frags, tombs: countTombs(s.frags)}
	// The export's inputs are about to be retired: it takes what the
	// reader cache holds of them and inserts none of what it loads.
	pl := s.scanPlan(nil)
	pl.retiring = true
	coords, vals, err := s.exportView(working, pl)
	if err != nil {
		return nil, err
	}
	old := s.frags
	s.frags = nil
	wrep, err := s.writeOne(Batch{Coords: coords, Values: vals})
	if err != nil {
		// The swap publishes only after the consolidated fragment's
		// manifest record is durable; an empty working list means that
		// never happened, so the old fragments remain the truth (and the
		// published snapshot never stopped saying so).
		if len(s.frags) == 0 {
			s.frags = old
		}
		return nil, err
	}
	// Fold the consolidated state into a checkpoint before touching the
	// old files: once MANIFEST lists only the new fragment (and the log
	// is gone), removing the superseded files can no longer strand a
	// manifest that references them. A crash before the fold is still
	// safe — the log's consolidated record replays on top of the old
	// fragments, and newest-wins resolution makes the two states
	// logically identical.
	if err := s.checkpoint(); err != nil {
		return nil, err
	}
	// Retire the superseded files: cache invalidation + removal run
	// immediately when no reader pins an older epoch, otherwise when the
	// last such view drains. Log-structured tombstones have no file.
	oldNames := make([]string, 0, len(old))
	for _, fr := range old {
		if fr.name != "" {
			oldNames = append(oldNames, fr.name)
		}
	}
	s.retire(oldNames)
	rep.FragmentsAfter = 1
	rep.PointsAfter = wrep.NNZ
	rep.BytesAfter = totalFragBytes(s.frags)
	return rep, nil
}

// maybeCompactBackground spawns the background compaction worker when
// the just-published snapshot holds compactAt fragments or more and no
// worker is already running. Called from publishLocked; a tile's
// worker waits for the compaction gate its Chunked store's tiles share
// (one compaction at a time per store tree), then for the writer lock,
// which the publishing mutation holds, then runs Compact — so triggers
// that arrive while it waits coalesce into one pass over the fragment
// set it finds.
func (s *Store) maybeCompactBackground(frags int) {
	if s.compactAt == 0 || frags < s.compactAt {
		return
	}
	if !s.bgRunning.CompareAndSwap(false, true) {
		s.obsReg().Counter("store.compact.background.skipped", "kind", s.kind.String()).Inc()
		return
	}
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		defer s.bgRunning.Store(false)
		if g := s.compactGate; g != nil {
			g.Lock()
			defer g.Unlock()
		}
		reg := s.obsReg()
		kind := s.kind.String()
		reg.Counter("store.compact.background.runs", "kind", kind).Inc()
		if _, err := s.Compact(); err != nil {
			reg.Counter("store.compact.background.errors", "kind", kind).Inc()
		}
	}()
}

// Checkpoint folds the manifest delta log into a fresh MANIFEST
// checkpoint. It is a no-op when the log is empty. Stores fold
// automatically per the WithManifestCheckpointEvery cadence; an
// explicit Checkpoint (or Close) bounds the replay work the next Open
// pays.
func (s *Store) Checkpoint() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.logRecords == 0 {
		return nil
	}
	return s.checkpoint()
}

// Close waits for any background compaction worker, then flushes
// manifest state — folding pending log records into a checkpoint. The
// store remains usable afterwards (fragments are plain files; there are
// no open handles to release), but callers should treat a closed store
// as done. Close must not race other mutations on the same handle.
func (s *Store) Close() error {
	s.bgWG.Wait()
	return s.Checkpoint()
}
