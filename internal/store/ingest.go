package store

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/filter"
	"sparseart/internal/fragment"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

// This file is Algorithm 3's WRITE, written once (DESIGN.md §8):
// prepareBatch builds one fragment (format Build, value Reorg, fragment
// Encode — the CPU phases, no file-system access), commitPrepared makes
// it durable (file write, then its manifest record, group-committed),
// and ingest drives the two for one batch or many, across the tiles
// the batches touch: prepares run on a bounded worker pool while the
// caller's goroutine commits in deterministic fragment order.
// Store.Write is the one-batch spelling and compaction builds
// its consolidated fragment through the same two calls, so every entry
// point leaves the same bytes: same fragment names, same file contents,
// same manifest state. Only the committer touches the file system,
// which is what makes the cost-model attribution of the Write and
// Others phases exact.

// Observability names for the ingest pipeline. Per-fragment phase work
// still feeds the store.write.* histograms (so Table III tooling sees
// one distribution regardless of ingest path); the names below cover
// the pipeline itself.
const (
	obsIngest = "store.ingest" // root span per WriteBatch/WriteBatchContext
)

// Batch is one fragment's worth of input to the batched ingest: a
// coordinate buffer and its aligned values, exactly the arguments of
// one Write.
type Batch struct {
	Coords *tensor.Coords
	Values []float64
}

// encodePool recycles fragment encode buffers across pipeline stages
// and WriteBatch calls, so a large ingest stops re-allocating one
// multi-megabyte output buffer per fragment.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// ingestJob carries one batch through the pipeline: filled in by a CPU
// worker, consumed by the committer. The done channel orders the
// hand-off (close happens-after every field write); it is nil for a
// lone fragment, prepared inline on the committer's own goroutine.
type ingestJob struct {
	rep     *WriteReport
	encoded *[]byte // pooled; nil until prepared
	bbox    tensor.BBox
	filter  *filter.Filter
	keys    *filter.Keys
	err     error
	done    chan struct{}
}

// resolveIngestWorkers picks the CPU-stage pool width: an explicit
// request >= 1, else every core (psort.Workers); always clamped to the
// job count.
func resolveIngestWorkers(requested, jobs int) int {
	return min(psort.Workers(requested), jobs)
}

// ValidateBatches is the one write validator — Store and serve.Router
// run it over a whole call before anything is built, sent or
// committed: every batch has coordinates of the shape's rank, one
// value per point, and no point outside the shape.
func ValidateBatches(batches []Batch, shape tensor.Shape) error {
	for i, b := range batches {
		switch {
		case b.Coords == nil || b.Coords.Dims() != shape.Dims():
			return fmt.Errorf("store: %w: batch %d: coords are not %d-dim", ErrShapeMismatch, i, shape.Dims())
		case b.Coords.Len() != len(b.Values):
			return fmt.Errorf("store: %w: batch %d: %d points with %d values", ErrShapeMismatch, i, b.Coords.Len(), len(b.Values))
		case !b.Coords.InShape(shape):
			return fmt.Errorf("store: %w: batch %d: coordinate outside shape %v", ErrShapeMismatch, i, shape)
		}
	}
	return nil
}

// ValidateDeleteRegion is the rule a deletion's region meets on every
// layer: the shape's rank, non-empty, and inside the shape.
func ValidateDeleteRegion(region tensor.Region, shape tensor.Shape) error {
	if region.Dims() != shape.Dims() {
		return fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, region.Dims(), shape.Dims())
	}
	if _, err := tensor.NewRegion(shape, region.Start, region.Size); err != nil {
		return fmt.Errorf("store: %w: %v", ErrShapeMismatch, err)
	}
	return nil
}

// tileWork is one tile's span of an ingest: the tile and its fragments
// in batch order.
type tileWork struct {
	name  string
	idx   []uint64
	items []tileFrag
}

// WriteBatchContext ingests the batches across every tile they touch
// through the parallel build pipeline and returns one report per batch,
// in batch order: a batch spanning k tiles writes k fragments, whose
// reports fold into its one (rep.Name is its first fragment's), and a
// batch of no points keeps a zero report. Each batch is partitioned by
// tile, and the per-tile fragments commit in sorted tile names outer,
// batch order inner — the order of one Write per (tile, batch) — so
// the on-disk result is byte-identical to that loop; all tiles'
// fragments prepare on one shared worker pool, and each tile's
// manifest log takes one Append per checkpoint interval. workers
// bounds the CPU-phase concurrency (values < 1 mean all cores).
//
// Reporting semantics under concurrency match a pooled read: each
// WriteReport's phase durations measure that fragment's aggregate work
// (Build/Reorg/Encode on whichever worker ran them, Write/Others on the
// committer), not elapsed wall time, and on a cost-modeled backend the
// modeled I/O is attributed exactly because only the committer touches
// the file system. Under group commit the flush's metadata cost lands
// on the fragment whose commit triggered it; a tile's creation cost on
// its first fragment.
//
// Every batch is validated before any I/O, so a point outside the
// shape rejects the whole call with nothing committed. On a later
// error, ingestion stops and no reports are returned: fragments
// committed before the failure remain durable and visible, exactly as
// if that prefix of Writes had run. Cancellation is one such error: it
// is checked before each fragment's commit (and by the prepare workers
// before each build), and the ingest returns ctx.Err(). When ctx
// carries a sampled trace, the ingest's spans join it.
func (s *Store) WriteBatchContext(ctx context.Context, batches []Batch, workers int) ([]*WriteReport, error) {
	if err := ValidateBatches(batches, s.tiling.Shape); err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		return nil, nil
	}
	byName := map[string]*tileWork{}
	var works []*tileWork
	for i, b := range batches {
		for _, p := range s.partition(nil, b.Coords, b.Values) {
			w, ok := byName[p.name]
			if !ok {
				w = &tileWork{name: p.name, idx: p.idx}
				byName[p.name] = w
				works = append(works, w)
			}
			w.items = append(w.items, tileFrag{idx: i, batch: Batch{Coords: p.coords, Values: p.vals}})
		}
	}
	slices.SortFunc(works, func(a, b *tileWork) int { return cmp.Compare(a.name, b.name) })

	reg := s.obsReg()
	kind := s.kind.String()
	root, _ := reg.StartCtx(ctx, obsIngest)
	defer root.End()

	// Materialize every touched tile up front, in commit order; each
	// creation's modeled cost is charged to that tile's first fragment,
	// and the flat fragment list comes out in (tile, batch) order.
	dir, setup, err := s.materialize(works)
	if err != nil {
		return nil, err
	}
	frags := make([]tileFrag, 0, len(batches))
	for _, w := range works {
		t := dir.byName[w.name].tile
		for n := range w.items {
			w.items[n].tile = t
			w.items[n].final = n == len(w.items)-1
		}
		w.items[0].setup = setup[w.name]
		frags = append(frags, w.items...)
	}

	workers = resolveIngestWorkers(workers, len(frags))
	reg.Gauge("store.ingest.workers", "kind", kind).Set(int64(workers))
	s.takeCost() // discard any cost accrued outside this call
	reps, err := ingest(ctx, frags, len(batches), workers, root)
	if err != nil {
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return nil, err
	}
	reg.Counter("store.ingest.count", "kind", kind).Inc()
	reg.Counter("store.ingest.fragments", "kind", kind).Add(int64(len(frags)))
	reg.Counter("store.ingest.tiles", "kind", kind).Add(int64(len(works)))
	return reps, nil
}

// WriteBatch is WriteBatchContext without a context.
func (s *Store) WriteBatch(batches []Batch, workers int) ([]*WriteReport, error) {
	return s.WriteBatchContext(context.Background(), batches, workers)
}

// tileFrag is one fragment of an ingest, in commit order: the slice of
// a batch that lands in a tile, and the tile it commits to.
type tileFrag struct {
	tile  *tile
	idx   int // logical batch index: the report it folds into
	batch Batch
	// final marks the tile's last fragment of this ingest and forces
	// its group flush: the committer never leaves a tile with records
	// staged, so queued reports always belong to the tile currently
	// committing.
	final bool
	// setup is the tile's creation cost, charged to the Others phase of
	// the tile's first fragment (a serial loop pays it on first touch).
	setup time.Duration
}

// ingest is the driver every WRITE entry point shares. The CPU stage
// prepares each fragment against its own tile (tile shapes are
// edge-clipped, so Build must see the right local shape) on a pool of
// workers goroutines; a single fragment is prepared inline, with no
// goroutine and no channel. The commit stage runs on the caller's
// goroutine in frags order: one file write per fragment, manifest
// records group-committed, each tile's writer lock held across its
// span of fragments — the ingest is one mutation stream per tile.
// It returns one report per logical batch (batches of them, each the
// fold of its fragments' reports; a batch with none keeps a zero
// report), or the first error and no reports — a caller sees the whole
// answer or none.
func ingest(ctx context.Context, frags []tileFrag, batches, workers int, root *obs.Span) ([]*WriteReport, error) {
	jobs := make([]ingestJob, len(frags))
	// abort lets workers skip useless work once the committer has seen
	// a failure.
	var abort atomic.Bool
	prepare := func(i int) {
		if !abort.Load() && ctx.Err() == nil {
			frags[i].tile.prepareBatch(&jobs[i], frags[i].batch, root)
		}
	}
	var wg sync.WaitGroup
	if len(frags) > 1 {
		// The pool drains the list in order (order only matters for
		// cache locality; the committer re-establishes commit order by
		// waiting on each job in turn).
		for i := range jobs {
			jobs[i].done = make(chan struct{})
		}
		feed := make(chan int)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range feed {
					prepare(i)
					close(jobs[i].done)
				}
			}()
		}
		go func() {
			for i := range frags {
				feed <- i
			}
			close(feed)
		}()
	}

	ic := &ingestCommitter{root: root, reps: make([]*WriteReport, batches)}
	var locked *tile
	for i := range jobs {
		j, st := &jobs[i], frags[i].tile
		if j.done == nil {
			prepare(i)
		} else {
			<-j.done
		}
		if ic.firstErr != nil {
			recycleJob(j)
			continue
		}
		if locked != st {
			if locked != nil {
				locked.writeMu.Unlock()
			}
			st.writeMu.Lock()
			locked = st
		}
		if err := ctx.Err(); err != nil {
			// The worker may have skipped the prepare for the same
			// reason; either way the fragment never reaches the log.
			recycleJob(j)
			ic.failPrepared(st, err)
		} else if j.err != nil {
			ic.failPrepared(st, j.err)
		} else {
			ic.commit(&frags[i], j)
		}
		if ic.firstErr != nil {
			abort.Store(true)
		}
	}
	if locked != nil {
		locked.writeMu.Unlock()
	}
	wg.Wait()
	if ic.firstErr != nil {
		return nil, ic.firstErr
	}
	for i, rep := range ic.reps {
		if rep == nil {
			ic.reps[i] = &WriteReport{}
		}
	}
	return ic.reps, nil
}

// queuedReport is a committed-but-not-yet-durable fragment's report,
// held back until its group's flush publishes the epoch it carries.
type queuedReport struct {
	idx int
	rep *WriteReport
}

// commitOutcome classifies what commitPrepared made durable.
type commitOutcome int

const (
	// commitStaged: the fragment's record joined the group buffer; it
	// becomes durable at the group's flush.
	commitStaged commitOutcome = iota
	// commitDurable: the fragment (and any group it flushed with) is
	// durable. May still carry an error if a checkpoint fold failed
	// after the flush — the records survive and replay on the next Open.
	commitDurable
	// commitRolledBack: the group flush failed; every fragment staged
	// since the last flush was rolled back from the in-memory state.
	commitRolledBack
	// commitFailed: this fragment failed before reaching the log; any
	// staged prefix is untouched.
	commitFailed
)

// ingestCommitter is the commit stage's state: it applies prepared
// fragments in deterministic order, holds reports back until their
// manifest records are durable, and folds each into its batch's report.
// Reports are only ever queued against the store currently committing,
// because each store flushes (tileFrag.final) before the committer
// moves to the next. Methods run on one goroutine — the ingest caller's.
type ingestCommitter struct {
	root     *obs.Span
	reps     []*WriteReport // one per logical batch; nil until a fragment lands
	queued   []queuedReport
	firstErr error
}

// deliver folds the queued reports — now durable — into their batches'
// reports, stamping each with st's current epoch (the one their flush
// published).
func (ic *ingestCommitter) deliver(st *tile) {
	epoch := st.currentEpoch()
	for _, q := range ic.queued {
		q.rep.Epoch = epoch
		if r := ic.reps[q.idx]; r != nil {
			r.Add(q.rep)
		} else {
			ic.reps[q.idx] = q.rep
		}
	}
	ic.queued = ic.queued[:0]
}

// fail records the ingest's terminal error; the first one wins.
func (ic *ingestCommitter) fail(err error) {
	if ic.firstErr == nil {
		ic.firstErr = err
	}
}

// failPrepared handles a fragment that failed before its manifest
// commit (a prepare error or fragment-file write error): the staged
// prefix, if any, is flushed so fragments committed before the failure
// stay durable, then the failure is recorded.
func (ic *ingestCommitter) failPrepared(st *tile, err error) {
	if rolledBack, ferr := st.flushStaged(); ferr != nil && rolledBack {
		ic.queued = ic.queued[:0]
	} else {
		ic.deliver(st) // the records landed, even if a checkpoint fold failed
	}
	// The original failure wins over any flush error.
	ic.fail(err)
}

// commit persists one prepared fragment into its store and folds
// whatever became durable.
func (ic *ingestCommitter) commit(f *tileFrag, j *ingestJob) {
	st := f.tile
	rep, outcome, err := st.commitPrepared(j, ic.root, f.final, f.setup)
	switch outcome {
	case commitStaged:
		ic.queued = append(ic.queued, queuedReport{idx: f.idx, rep: rep})
	case commitDurable:
		ic.queued = append(ic.queued, queuedReport{idx: f.idx, rep: rep})
		ic.deliver(st)
		if err != nil { // the checkpoint fold failed after a durable flush
			ic.fail(err)
		}
	case commitRolledBack:
		ic.queued = ic.queued[:0]
		ic.fail(err)
	case commitFailed:
		ic.failPrepared(st, err)
	}
}

// prepareBatch builds one fragment — the store's only Format.Build, its
// only fragment encode and its only key-filter build: Build, Reorg,
// and Encode (with payload compression) into a pooled buffer, on a
// pool worker or inline. Both filters, coordinate and key, go to the
// manifest record only; the fragment file carries neither. No
// file-system access happens here — that is what makes the committer's
// cost attribution exact.
func (s *tile) prepareBatch(j *ingestJob, b Batch, root *obs.Span) {
	reg := s.obsReg()
	kind := s.kind.String()
	rep := &WriteReport{NNZ: b.Coords.Len()}

	sp := root.Child(obsWriteBuild)
	t := time.Now()
	built, err := s.format.Build(b.Coords, s.shape)
	sp.End()
	if err != nil {
		j.err = err
		return
	}
	rep.Build = time.Since(t)
	reg.Histogram(obsWriteBuild, "kind", kind).Observe(rep.Build)

	sp = root.Child(obsWriteReorg)
	t = time.Now()
	packed := tensor.ApplyPermValues(b.Values, built.Perm)
	rep.Reorg = time.Since(t)
	if d := sp.End(); d > 0 {
		// The phase is nanoseconds of work, so clock-read skew between
		// two independent measurements would dwarf it: feed the span's
		// own duration — already observed in the unlabeled histogram —
		// into the labeled one so the two stay in exact agreement.
		rep.Reorg = d
	}
	reg.Histogram(obsWriteReorg, "kind", kind).Observe(rep.Reorg)

	// Encode is the CPU half of the Write phase; the committer adds the
	// file transfer on top of rep.Write.
	sp = root.Child(obsWriteWrite)
	t = time.Now()
	bbox, _ := b.Coords.Bounds()
	frag := &fragment.Fragment{Payload: built.Payload, Values: packed}
	frag.Kind = s.kind
	frag.Codec = s.codec
	frag.Shape = s.shape
	frag.NNZ = uint64(b.Coords.Len())
	frag.BBox = bbox
	bufp := encodePool.Get().(*[]byte)
	enc, err := fragment.AppendEncode(*bufp, frag)
	sp.End()
	if err != nil {
		encodePool.Put(bufp)
		j.err = err
		return
	}
	*bufp = enc
	rep.Write = time.Since(t)
	j.rep = rep
	j.encoded = bufp
	j.bbox = bbox
	j.filter = filter.Build(b.Coords)
	j.keys = filter.BuildKeys(b.Coords, s.lin)
}

// commitPrepared makes one prepared fragment durable: the file write,
// the manifest commit, and the cost-model accounting of Table III's
// Write and Others rows. The manifest record is staged, and flushed (in
// one Append with its group) when the checkpoint cadence is reached or
// final is set — exactly the fragment boundaries where a loop of
// one-batch writes checkpoints, which is what keeps the on-disk bytes
// identical however the batches arrive. setup (tileFrag.setup) is
// charged to the Others phase. The caller holds writeMu.
func (s *tile) commitPrepared(j *ingestJob, root *obs.Span, final bool, setup time.Duration) (*WriteReport, commitOutcome, error) {
	reg := s.obsReg()
	kind := s.kind.String()
	rep := j.rep
	enc := *j.encoded
	defer recycleJob(j)

	name := fmt.Sprintf("%s/frag-%06d", s.prefix, s.nextID)
	sp := root.Child(obsWriteWrite)
	t := time.Now()
	if err := s.fs.WriteFile(name, enc); err != nil {
		sp.End()
		return nil, commitFailed, fmt.Errorf("store: write fragment: %w", err)
	}
	wall := time.Since(t)
	var pendingMeta time.Duration
	if cost, ok := s.takeCost(); ok {
		rep.Write += wall + cost.Write + cost.Read
		rep.Others += cost.Meta
		pendingMeta = cost.Meta
		sp.Add(cost.Write + cost.Read)
	} else {
		rep.Write += wall
	}
	sp.End()
	reg.Histogram(obsWriteWrite, "kind", kind).Observe(rep.Write)

	sp = root.Child(obsWriteOthers)
	sp.Add(pendingMeta)
	t = time.Now()
	outcome := commitDurable
	var commitErr error
	fr := fragRef{name: name, nnz: uint64(rep.NNZ), bytes: int64(len(enc)), bbox: j.bbox, filter: j.filter, keys: j.keys}
	s.stageFragment(fr)
	if final || s.groupFlushDue() {
		rolledBack, err := s.flushStaged()
		if err != nil {
			if rolledBack {
				outcome = commitRolledBack
			}
			commitErr = err
		}
	} else {
		outcome = commitStaged
	}
	wall = time.Since(t)
	if cost, ok := s.takeCost(); ok {
		rep.Others += wall + cost.Total()
		sp.Add(cost.Total())
	} else {
		rep.Others += wall
	}
	rep.Others += setup
	sp.Add(setup)
	sp.End()
	if outcome == commitRolledBack {
		return nil, outcome, commitErr
	}
	reg.Histogram(obsWriteOthers, "kind", kind).Observe(rep.Others)

	rep.Bytes = int64(len(enc))
	rep.Name = name
	reg.Counter("store.write.count", "kind", kind).Inc()
	reg.Counter("store.write.bytes", "kind", kind).Add(rep.Bytes)
	reg.Counter("store.write.nnz", "kind", kind).Add(int64(rep.NNZ))
	return rep, outcome, commitErr
}

// writeOne is the pipeline for a single fragment under the tile's
// writer lock, already held: how compaction builds its consolidated
// fragment. Prepare and commit run back to back on the caller's
// goroutine under one store.write root span; the record is a group of
// one, flushed before the report is returned.
func (s *tile) writeOne(b Batch) (*WriteReport, error) {
	s.takeCost() // discard any cost accrued outside this call
	reg := s.obsReg()
	kind := s.kind.String()
	root := reg.Start(obsWrite)
	defer root.End()

	var j ingestJob
	s.prepareBatch(&j, b, root)
	rep, err := j.rep, j.err
	if err == nil {
		rep, _, err = s.commitPrepared(&j, root, true, 0)
	}
	if err != nil {
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return nil, err
	}
	rep.Epoch = s.currentEpoch()
	return rep, nil
}

// recycleJob returns a job's pooled encode buffer. Idempotent.
func recycleJob(j *ingestJob) {
	if j.encoded != nil {
		encodePool.Put(j.encoded)
		j.encoded = nil
	}
}
