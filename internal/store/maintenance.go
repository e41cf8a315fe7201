package store

import (
	"context"
	"fmt"

	"sparseart/internal/advisor"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// This file holds the engine's maintenance operations, built on the
// core.Iterator contract every organization's reader implements:
// fragment consolidation (the TileDB-style answer to the fragment
// accumulation Algorithm 3's append-only WRITE causes), whole-store
// export, and conversion between organizations. Compact runs under the
// writer lock but never blocks readers: it builds the consolidated
// fragment off to the side, swaps it in as a new snapshot epoch, and
// defers deleting the superseded files until the last reader pinning an
// older epoch drains (see view.go). CompactAsync and
// WithBackgroundCompaction move the whole pass onto a background
// worker.

// ExportAll returns the store's full logical contents — every live
// cell after overlap and tombstone resolution — sorted by linear
// address. Fragments resolve through the reader cache, so an export
// right after reads iterates resident indexes without re-fetching.
func (s *Store) ExportAll() (*tensor.Coords, []float64, error) {
	v := s.acquireView()
	defer v.release()
	return s.exportView(v)
}

// exportView materializes the live contents of a view: a READ whose
// target is everything, every fragment scanned in full.
func (s *Store) exportView(v *readView) (*tensor.Coords, []float64, error) {
	res, _, _, err := s.readView(context.Background(), v, len(v.frags), s.scanPlan(nil), 0, nil)
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
	// Kind is the organization the store holds after the pass — it
	// differs from the pre-compaction kind when CompactTo/CompactAuto
	// re-organized during the rewrite.
	Kind core.Kind
}

// Compact consolidates all fragments into one, resolving overlapping
// writes (newest wins) and reclaiming the space of superseded cells.
// A store with zero or one fragment is returned unchanged.
//
// Compaction holds the writer lock (it serializes against writes and
// deletes) but readers are never blocked: they keep serving from the
// pre-compaction snapshot until the consolidated fragment's epoch is
// published, and the superseded files are physically deleted only when
// the last view pinning an older epoch drains.
func (s *Store) Compact() (*CompactReport, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.compactLocked(nil)
}

// CompactTo consolidates like Compact while rewriting the store into
// the given organization: the consolidated fragment is built with the
// target format and the store's manifest kind switches with it, so
// every later Write uses the new organization. Superseded fragments of
// the old kind remain readable in pinned views (fragments open by their
// own header kind). A single-fragment store of a different kind is
// still rewritten; with the current kind it is a no-op like Compact.
func (s *Store) CompactTo(kind core.Kind) (*CompactReport, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("store: compact to invalid organization %v", kind)
	}
	if _, err := core.Get(kind); err != nil {
		return nil, err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.compactLocked(func(*tensor.Coords) (core.Kind, error) { return kind, nil })
}

// CompactAuto consolidates into whatever organization the advisor
// recommends for the store's live contents (balanced weights, mixed
// read/write workload) — background re-organization's decision rule.
func (s *Store) CompactAuto() (*CompactReport, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.compactLocked(s.adviseKind)
}

// adviseKind characterizes the exported live contents and asks the
// advisor for the best organization. An empty store keeps its kind.
func (s *Store) adviseKind(coords *tensor.Coords) (core.Kind, error) {
	if coords.Len() == 0 {
		return s.curKind(), nil
	}
	p, err := advisor.Characterize(coords, s.shape)
	if err != nil {
		return 0, err
	}
	rec, err := advisor.Recommend(p, advisor.Balanced(), 0.5)
	if err != nil {
		return 0, err
	}
	return rec.Best, nil
}

// compactLocked consolidates under writeMu. pick, when non-nil, chooses
// the target organization from the exported live coordinates (CompactTo
// ignores them, CompactAuto characterizes them); nil keeps the current
// kind and preserves Compact's historical fast path for stores that are
// already a single fragment.
func (s *Store) compactLocked(pick func(*tensor.Coords) (core.Kind, error)) (*CompactReport, error) {
	reg := s.obsReg()
	root := reg.Start("store.compact")
	defer root.End()
	reg.Counter("store.compact.count", "kind", s.curKind().String()).Inc()
	rep := &CompactReport{
		FragmentsBefore: len(s.frags),
		BytesBefore:     totalFragBytes(s.frags),
		Kind:            s.curKind(),
	}
	for _, fr := range s.frags {
		rep.PointsBefore += int(fr.nnz)
	}
	unchanged := func() *CompactReport {
		rep.FragmentsAfter = len(s.frags)
		rep.PointsAfter = rep.PointsBefore
		rep.BytesAfter = rep.BytesBefore
		return rep
	}
	if len(s.frags) == 0 || (pick == nil && len(s.frags) <= 1) {
		return unchanged(), nil
	}
	// A view over the writer's working list needs no pin: the writer
	// lock is held, so nothing retires these files before this pass does.
	working := &readView{s: s, frags: s.frags, tombs: countTombs(s.frags), index: buildFragIndex(s.shape, s.frags)}
	coords, vals, err := s.exportView(working)
	if err != nil {
		return nil, err
	}
	target := s.curKind()
	if pick != nil {
		if target, err = pick(coords); err != nil {
			return nil, err
		}
	}
	if len(s.frags) == 1 && target == s.curKind() && !s.frags[0].tomb {
		return unchanged(), nil
	}
	prevOrg := s.org.Load()
	if target != prevOrg.kind {
		f, err := core.Get(target)
		if err != nil {
			return nil, err
		}
		s.setOrg(target, f)
		reg.Counter("store.compact.reorg", "kind", prevOrg.kind.String(), "to", target.String()).Inc()
		rep.Kind = target
	}
	old := s.frags
	s.frags = nil
	wrep, err := s.writeOne(Batch{Coords: coords, Values: vals})
	if err != nil {
		// The swap publishes only after the consolidated fragment's
		// manifest record is durable; an empty working list means that
		// never happened, so the old fragments remain the truth (and the
		// published snapshot never stopped saying so). The organization
		// swap rolls back with it.
		if len(s.frags) == 0 {
			s.frags = old
			s.org.Store(prevOrg)
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

// CompactResult is CompactAsync's completion notice.
type CompactResult struct {
	Report *CompactReport
	Err    error
}

// CompactAsync runs Compact on a background goroutine and returns a
// channel that delivers the result (buffered; the worker never blocks
// on it). Reads proceed concurrently throughout; writes resume as soon
// as the consolidation's swap completes. Close waits for the worker.
func (s *Store) CompactAsync() <-chan CompactResult {
	ch := make(chan CompactResult, 1)
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		rep, err := s.compactBackground()
		ch <- CompactResult{Report: rep, Err: err}
	}()
	return ch
}

// compactBackground is the worker body shared by CompactAsync and the
// WithBackgroundCompaction trigger.
func (s *Store) compactBackground() (*CompactReport, error) {
	reg := s.obsReg()
	kind := s.curKind().String()
	reg.Counter("store.compact.background.runs", "kind", kind).Inc()
	var rep *CompactReport
	var err error
	if s.autoReorg {
		rep, err = s.CompactAuto()
	} else {
		rep, err = s.Compact()
	}
	if err != nil {
		reg.Counter("store.compact.background.errors", "kind", kind).Inc()
	}
	return rep, err
}

// maybeCompactAsync spawns the background compaction worker when the
// just-published snapshot has accumulated enough fragments
// (WithBackgroundCompaction) and no worker is already running. Called
// from publishLocked; the worker blocks on the writer lock until the
// publishing mutation finishes, then compacts — so back-to-back
// triggers coalesce into one pass over the final fragment set.
func (s *Store) maybeCompactAsync(frags int) {
	if s.bgMinFrags <= 0 || frags < s.bgMinFrags {
		return
	}
	if !s.bgRunning.CompareAndSwap(false, true) {
		s.obsReg().Counter("store.compact.background.skipped", "kind", s.curKind().String()).Inc()
		return
	}
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		defer s.bgRunning.Store(false)
		s.compactBackground()
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
