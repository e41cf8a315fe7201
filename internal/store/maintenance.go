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
// export. Each runs per tile, and the Store folds over its tiles. A
// tile's compaction runs under its writer lock but never blocks
// readers: it builds the consolidated fragment off to the side, swaps
// it in as a new snapshot epoch, and defers deleting the superseded
// files until the last reader pinning an older epoch drains (see
// view.go). A tiled store's tile runs the pass on a background worker
// once it holds defaultCompactAt fragments, one tile at a time per
// store; WithBackgroundCompaction moves the threshold, and turns the
// worker on for a flat store.

// ExportAll returns the store's full logical contents — every live
// cell after overlap and tombstone resolution — sorted by linear
// address (row-major order): each tile's export, shifted to global
// coordinates, merged by MergeResults. Fragments resolve through the
// reader cache, so an export right after reads iterates resident
// indexes without re-fetching.
func (s *Store) ExportAll() (*tensor.Coords, []float64, error) {
	dir := s.dir.Load()
	parts := make([]*Result, 0, len(dir.sorted))
	for _, e := range dir.sorted {
		v := e.tile.acquireView()
		coords, vals, err := e.tile.exportView(v, e.tile.scanPlan(nil))
		v.release()
		if err != nil {
			return nil, nil, err
		}
		s.toGlobal(coords, e.idx)
		parts = append(parts, &Result{Coords: coords, Values: vals})
	}
	res := MergeResults(s.tiling.Shape.Dims(), parts)
	return res.Coords, res.Values, nil
}

// CompactReport summarizes a consolidation; a store's sums its tiles'.
type CompactReport struct {
	FragmentsBefore, FragmentsAfter int
	PointsBefore, PointsAfter       int // PointsBefore counts duplicates across fragments
	BytesBefore, BytesAfter         int64
}

// Compact consolidates each tile's fragments into one, resolving
// overlapping writes (newest wins) and reclaiming the space of
// superseded cells and folded tombstones. The consolidated fragment is
// built in the store's organization, which is fixed at creation
// (Convert writes a new store in another). A tile with zero or one
// fragment is left unchanged.
//
// A tile's compaction holds its writer lock (it serializes against
// writes and deletes) but readers are never blocked: they keep serving
// from the pre-compaction snapshot until the consolidated fragment's
// epoch is published, and the superseded files are physically deleted
// only when the last view pinning an older epoch drains.
func (s *Store) Compact() (*CompactReport, error) {
	total := &CompactReport{}
	err := s.eachTile(func(t *tile) error {
		rep, err := t.compact()
		if err == nil {
			total.FragmentsBefore += rep.FragmentsBefore
			total.FragmentsAfter += rep.FragmentsAfter
			total.PointsBefore += rep.PointsBefore
			total.PointsAfter += rep.PointsAfter
			total.BytesBefore += rep.BytesBefore
			total.BytesAfter += rep.BytesAfter
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// Checkpoint folds every tile's manifest delta log into a fresh
// MANIFEST checkpoint; a tile with an empty log is left as it is.
// Tiles fold automatically per the WithManifestCheckpointEvery cadence;
// an explicit Checkpoint (or Close) bounds the replay work the next
// Open pays.
func (s *Store) Checkpoint() error { return s.eachTile((*tile).foldLog) }

// Close waits for every tile's background compaction worker, then
// folds its manifest log into a checkpoint. The store remains usable
// afterwards (fragments are plain files; there are no open handles to
// release), but callers should treat a closed store as done. Close
// must not race other mutations on the same handle.
func (s *Store) Close() error {
	return s.eachTile(func(t *tile) error {
		t.bgWG.Wait()
		return t.foldLog()
	})
}

// exportView materializes the live contents of a view: a READ under a
// whole-store scan plan (scanPlan(nil)), every fragment scanned in full.
func (s *tile) exportView(v *readView, pl readPlan) (*tensor.Coords, []float64, error) {
	res, _, _, err := s.readView(context.Background(), v, len(v.frags), pl, nil)
	if err != nil {
		return nil, nil, err
	}
	return res.Coords, res.Values, nil
}

// compact consolidates the tile's fragments into one (Store.Compact).
func (s *tile) compact() (*CompactReport, error) {
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
// worker is already running. Called from publishLocked; the worker
// waits for the compaction gate the store's tiles share (one
// compaction at a time per store), then for the writer lock, which the
// publishing mutation holds, then runs compact — so triggers that
// arrive while it waits coalesce into one pass over the fragment set it
// finds.
func (s *tile) maybeCompactBackground(frags int) {
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
		s.compactGate.Lock()
		defer s.compactGate.Unlock()
		reg := s.obsReg()
		kind := s.kind.String()
		reg.Counter("store.compact.background.runs", "kind", kind).Inc()
		if _, err := s.compact(); err != nil {
			reg.Counter("store.compact.background.errors", "kind", kind).Inc()
		}
	}()
}

// foldLog folds the manifest delta log into a fresh checkpoint; a
// no-op when the log is empty.
func (s *tile) foldLog() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.logRecords == 0 {
		return nil
	}
	return s.checkpoint()
}
