package store

import (
	"context"
	"fmt"
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
// and ingest drives the two for one batch or many, in one store or
// across a chunked store's tiles: prepares run on a bounded worker
// pool while the caller's goroutine commits in deterministic fragment
// order. Store.Write is the one-batch spelling and compaction builds
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

// ValidateBatches is the one write validator — Store, Chunked and
// serve.Router run it over a whole call before anything is built, sent
// or committed: every batch has coordinates of the shape's rank, one
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

// WriteBatchContext ingests many fragments through the parallel build
// pipeline, streaming results instead of materializing them. Fragments
// are numbered and committed in batch order, so the on-disk result is
// byte-identical to calling Write once per batch; workers bounds the
// CPU-phase concurrency (values < 1 mean all cores).
//
// fn runs on the caller's goroutine: once per fragment, in batch order,
// with (index, report, nil) — called only after the fragment is durable
// (its manifest record flushed, under group commit possibly together
// with its neighbors') — and at most once more with (index, nil, err)
// if ingestion stops on an error. Returning a non-nil error from fn
// stops the ingest after the fragments already committed; that error is
// what WriteBatchContext returns.
//
// Reporting semantics under concurrency match a pooled read: each
// WriteReport's phase durations measure that fragment's aggregate work
// (Build/Reorg/Encode on whichever worker ran them, Write/Others on the
// committer), not elapsed wall time, and on a cost-modeled backend the
// modeled I/O is attributed exactly because only the committer touches
// the file system. Under group commit the flush's metadata cost lands
// on the fragment whose commit triggered it.
//
// On error, ingestion stops: fragments committed before the failure
// remain durable and visible, exactly as if that prefix of Writes had
// run. Cancellation is one such error: it is checked before each
// fragment's commit (and by the prepare workers before each build), and
// the ingest returns ctx.Err() after reporting it through fn with
// (index, nil, err). When ctx carries a sampled trace, the ingest's
// spans join it.
func (s *Store) WriteBatchContext(ctx context.Context, batches []Batch, workers int, fn func(i int, rep *WriteReport, err error) error) error {
	if err := ValidateBatches(batches, s.shape); err != nil {
		return err
	}
	if len(batches) == 0 {
		return nil
	}
	workers = resolveIngestWorkers(workers, len(batches))
	s.takeCost() // discard any cost accrued outside this call

	reg := s.obsReg()
	kind := s.kind.String()
	root, _ := reg.StartCtx(ctx, obsIngest)
	defer root.End()
	reg.Gauge("store.ingest.workers", "kind", kind).Set(int64(workers))

	// The flat store is the one-tile case of the ingest driver.
	frags := make([]tileFrag, len(batches))
	for i, b := range batches {
		frags[i] = tileFrag{store: s, idx: i, batch: b, final: i == len(batches)-1}
	}
	committed, err := ingest(ctx, frags, workers, root, fn)
	reg.Gauge("store.fragments", "kind", kind).Set(int64(s.Fragments()))
	if err != nil {
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return err
	}
	reg.Counter("store.ingest.count", "kind", kind).Inc()
	reg.Counter("store.ingest.fragments", "kind", kind).Add(int64(committed))
	return nil
}

// WriteBatch is the collecting form of WriteBatchContext, for callers
// that want every report at once rather than as fragments become
// durable. On error no report list is returned (the committed prefix is
// durable regardless).
func (s *Store) WriteBatch(batches []Batch, workers int) ([]*WriteReport, error) {
	return collectReports(batches, workers, s.WriteBatchContext)
}

// collectReports runs a WriteBatchContext-shaped ingest to completion
// and returns its reports in batch order.
func collectReports(batches []Batch, workers int,
	ingest func(context.Context, []Batch, int, func(int, *WriteReport, error) error) error) ([]*WriteReport, error) {
	var reports []*WriteReport
	err := ingest(context.Background(), batches, workers, func(_ int, rep *WriteReport, err error) error {
		if err == nil {
			reports = append(reports, rep)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// tileFrag is one fragment of an ingest, in commit order: a batch (or
// the slice of one that lands in a tile) and the store it commits to.
type tileFrag struct {
	store *Store
	idx   int // logical batch index, reported to fn
	batch Batch
	// final marks the store's last fragment of this ingest and forces
	// its group flush: the committer never leaves a store with records
	// staged, so queued reports always belong to the store currently
	// committing.
	final bool
	// setup is the tile store's creation cost, charged to the Others
	// phase of the tile's first fragment (a serial loop pays it inside
	// tileStore on first touch).
	setup time.Duration
}

// ingest is the driver every WRITE entry point shares. The CPU stage
// prepares each fragment against its own store (tile shapes are
// edge-clipped, so Build must see the right local shape) on a pool of
// workers goroutines; a single fragment is prepared inline, with no
// goroutine and no channel. The commit stage runs on the caller's
// goroutine in frags order: one file write per fragment, manifest
// records group-committed, each store's writer lock held across its
// span of fragments — the ingest is one mutation stream per store, so
// fn must not call a store's mutating methods (reads are fine: they
// serve from published snapshots). Returns how many reports fn
// accepted and the first error.
func ingest(ctx context.Context, frags []tileFrag, workers int, root *obs.Span, fn func(int, *WriteReport, error) error) (int, error) {
	jobs := make([]ingestJob, len(frags))
	// abort lets workers skip useless work once the committer has seen
	// a failure.
	var abort atomic.Bool
	prepare := func(i int) {
		if !abort.Load() && ctx.Err() == nil {
			frags[i].store.prepareBatch(&jobs[i], frags[i].batch, root)
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

	ic := &ingestCommitter{root: root, fn: fn}
	var locked *Store
	for i := range jobs {
		j, st := &jobs[i], frags[i].store
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
			ic.failPrepared(st, frags[i].idx, err)
		} else if j.err != nil {
			ic.failPrepared(st, frags[i].idx, j.err)
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
	return ic.committed, ic.firstErr
}

// queuedReport is a committed-but-not-yet-durable fragment's report,
// held back until its group's flush so callers never see a report the
// log could still lose.
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
// manifest records are durable, and streams them through fn. Reports
// are only ever queued against the store currently committing, because
// each store flushes (tileFrag.final) before the committer moves to the
// next. Methods run on one goroutine — the ingest caller's.
type ingestCommitter struct {
	root      *obs.Span
	fn        func(int, *WriteReport, error) error
	queued    []queuedReport
	committed int
	firstErr  error
}

// deliver streams the queued reports — now durable — to fn in order,
// stamping each with st's current epoch (the one their flush
// published). If fn asks to stop, remaining reports are dropped (their
// fragments stay durable) and firstErr records the stop.
func (ic *ingestCommitter) deliver(st *Store) {
	epoch := st.currentEpoch()
	for _, q := range ic.queued {
		q.rep.Epoch = epoch
		if ic.firstErr == nil {
			if err := ic.fn(q.idx, q.rep, nil); err != nil {
				ic.firstErr = err
			} else {
				ic.committed++
			}
		}
	}
	ic.queued = ic.queued[:0]
}

// abort reports the terminal error to fn (unless fn already stopped the
// ingest itself) and records it.
func (ic *ingestCommitter) abort(idx int, err error) {
	if ic.firstErr == nil {
		ic.fn(idx, nil, err)
		ic.firstErr = err
	}
}

// failPrepared handles a fragment that failed before its manifest
// commit (a prepare error or fragment-file write error): the staged
// prefix, if any, is flushed so fragments committed before the failure
// stay visible, then the failure is reported.
func (ic *ingestCommitter) failPrepared(st *Store, idx int, err error) {
	if rolledBack, ferr := st.flushStaged(); ferr != nil {
		if rolledBack {
			ic.queued = ic.queued[:0]
		} else {
			ic.deliver(st) // records landed; only the checkpoint fold failed
		}
		// The original failure still wins over the flush error.
	} else {
		ic.deliver(st)
	}
	ic.abort(idx, err)
}

// commit persists one prepared fragment into its store and streams
// whatever became durable.
func (ic *ingestCommitter) commit(f *tileFrag, j *ingestJob) {
	st, idx := f.store, f.idx
	rep, outcome, err := st.commitPrepared(j, ic.root, f.final, f.setup)
	switch outcome {
	case commitStaged:
		ic.queued = append(ic.queued, queuedReport{idx: idx, rep: rep})
	case commitDurable:
		ic.queued = append(ic.queued, queuedReport{idx: idx, rep: rep})
		ic.deliver(st)
		if err != nil { // the checkpoint fold failed after a durable flush
			ic.abort(idx, err)
		}
	case commitRolledBack:
		ic.queued = ic.queued[:0]
		ic.abort(idx, err)
	case commitFailed:
		ic.failPrepared(st, idx, err)
	}
}

// prepareBatch builds one fragment — the store's only Format.Build, its
// only fragment encode and its only key-filter build: Build, Reorg,
// and Encode (with payload compression) into a pooled buffer, on a
// pool worker or inline. The key filter goes to the manifest record
// only; the fragment file carries the coordinate filter alone. No
// file-system access happens here — that is what makes the committer's
// cost attribution exact.
func (s *Store) prepareBatch(j *ingestJob, b Batch, root *obs.Span) {
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
	filt := filter.Build(b.Coords)
	frag := &fragment.Fragment{Payload: built.Payload, Values: packed}
	frag.Kind = s.kind
	frag.Codec = s.codec
	frag.Shape = s.shape
	frag.NNZ = uint64(b.Coords.Len())
	frag.BBox = bbox
	frag.Filter = filt
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
	j.filter = filt
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
func (s *Store) commitPrepared(j *ingestJob, root *obs.Span, final bool, setup time.Duration) (*WriteReport, commitOutcome, error) {
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

// writeOne is the pipeline for a single fragment under a lock already
// held: Store.Write's body, and how compaction builds its consolidated
// fragment. Prepare and commit run back to back on the caller's
// goroutine under one store.write root span; the record is a group of
// one, flushed before the report is returned.
func (s *Store) writeOne(b Batch) (*WriteReport, error) {
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
	reg.Gauge("store.fragments", "kind", kind).Set(int64(len(s.frags)))
	return rep, nil
}

// recycleJob returns a job's pooled encode buffer. Idempotent.
func recycleJob(j *ingestJob) {
	if j.encoded != nil {
		encodePool.Put(j.encoded)
		j.encoded = nil
	}
}
