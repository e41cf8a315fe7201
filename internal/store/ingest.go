package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/filter"
	"sparseart/internal/fragment"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

// This file implements the batched ingest pipeline: the CPU phases of
// Algorithm 3's WRITE (format Build, value Reorg, fragment Encode —
// including payload compression) run for many fragments concurrently on
// a bounded worker pool, while the caller's goroutine acts as the
// committer, performing the file writes and manifest commits in
// deterministic fragment order. The result is byte-identical to a
// serial loop of Write — same fragment names, same file contents, same
// manifest state — only faster, because the paper's assembly-dominated
// Build/Encode phases overlap across fragments, and (with group commit)
// cheaper in metadata, because manifest-log records are group-committed:
// one Append per checkpoint interval instead of one per fragment.
//
// The primitive is streaming: WriteBatchContext delivers each
// fragment's WriteReport as it becomes durable, and WriteBatch is a
// thin collector for callers that want the full report slice. The same
// committer drives Chunked's cross-tile ingest (chunked_ingest.go),
// which moves it across tile stores in (tile, fragment) order.

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
// hand-off (close happens-after every field write).
type ingestJob struct {
	rep     *WriteReport
	encoded *[]byte // pooled; nil until prepared
	bbox    tensor.BBox
	filter  *filter.Filter
	err     error
	done    chan struct{}
	// extraOthers is charged to the report's Others phase at commit
	// time; the chunked ingest uses it to attribute tile-store setup
	// cost to the tile's first fragment.
	extraOthers time.Duration
}

// resolveIngestWorkers picks the CPU-stage pool width: an explicit
// request >= 1 wins, then the store's WithIngestWorkers default, then
// every core (psort.Workers); always clamped to the job count.
func resolveIngestWorkers(requested, configured, jobs int) int {
	if requested < 1 && configured > 0 {
		requested = configured
	}
	w := psort.Workers(requested)
	if w > jobs {
		w = jobs
	}
	return w
}

// validateBatches runs the per-batch argument checks shared by the
// flat and the cross-tile ingest.
func validateBatches(batches []Batch, dims int) error {
	for i, b := range batches {
		if b.Coords.Len() != len(b.Values) {
			return fmt.Errorf("store: %w: batch %d: %d points with %d values", ErrShapeMismatch, i, b.Coords.Len(), len(b.Values))
		}
		if b.Coords.Dims() != dims {
			return fmt.Errorf("store: %w: batch %d: %d-dim coords for %d-dim store", ErrShapeMismatch, i, b.Coords.Dims(), dims)
		}
	}
	return nil
}

// WriteBatchContext ingests many fragments through the parallel build
// pipeline, streaming results instead of materializing them. Fragments
// are numbered and committed in batch order, so the on-disk result is
// byte-identical to calling Write once per batch; workers bounds the
// CPU-phase concurrency (values < 1 mean the WithIngestWorkers default,
// or all cores).
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
// (index, nil, err).
func (s *Store) WriteBatchContext(ctx context.Context, batches []Batch, workers int, fn func(i int, rep *WriteReport, err error) error) error {
	if err := validateBatches(batches, s.shape.Dims()); err != nil {
		return err
	}
	if len(batches) == 0 {
		return nil
	}
	workers = resolveIngestWorkers(workers, s.ingestWorkers, len(batches))
	s.takeCost() // discard any cost accrued outside this call

	reg := s.obsReg()
	kind := s.curKind().String()
	root := reg.Start(obsIngest)
	defer root.End()
	reg.Gauge("store.ingest.workers", "kind", kind).Set(int64(workers))

	jobs, abort, wg := s.startPrepare(ctx, batches, workers, root)

	// Commit stage, on the caller's goroutine: deterministic fragment
	// order, one file write per fragment, manifest records
	// group-committed. The writer lock
	// is held across the whole commit loop — the ingest is one mutation
	// stream — so fn must not call the store's mutating methods (reads
	// are fine: they serve from published snapshots).
	s.writeMu.Lock()
	ic := &ingestCommitter{root: root, fn: fn}
	for i := range jobs {
		<-jobs[i].done
		j := &jobs[i]
		if ic.firstErr != nil {
			recycleJob(j)
			continue
		}
		if err := ctx.Err(); err != nil {
			// The worker may have skipped the prepare for the same
			// reason; either way the fragment never reaches the log.
			recycleJob(j)
			ic.failPrepared(s, i, err)
		} else if j.err != nil {
			ic.failPrepared(s, i, j.err)
		} else {
			ic.commit(s, i, j, i == len(jobs)-1)
		}
		if ic.firstErr != nil {
			abort.Store(true)
		}
	}
	reg.Gauge("store.fragments", "kind", kind).Set(int64(len(s.frags)))
	s.writeMu.Unlock()
	wg.Wait()
	if ic.firstErr != nil {
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return ic.firstErr
	}
	reg.Counter("store.ingest.count", "kind", kind).Inc()
	reg.Counter("store.ingest.fragments", "kind", kind).Add(int64(ic.committed))
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

// startPrepare launches the CPU stage: a bounded pool drains the batch
// list in order (order only matters for cache locality; the committer
// re-establishes commit order by waiting on each job in turn). The
// abort flag lets workers skip useless work once the committer has seen
// a failure.
func (s *Store) startPrepare(ctx context.Context, batches []Batch, workers int, root *obs.Span) ([]ingestJob, *atomic.Bool, *sync.WaitGroup) {
	jobs := make([]ingestJob, len(batches))
	for i := range jobs {
		jobs[i].done = make(chan struct{})
	}
	var abort atomic.Bool
	feed := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				if !abort.Load() && ctx.Err() == nil {
					s.prepareBatch(&jobs[i], batches[i], root)
				}
				close(jobs[i].done)
			}
		}()
	}
	go func() {
		for i := range batches {
			feed <- i
		}
		close(feed)
	}()
	return jobs, &abort, &wg
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

// ingestCommitter drives the commit stage of a batched ingest: it
// applies prepared fragments in deterministic order, holds reports back
// until their manifest records are durable, and streams them through
// fn. One committer serves the flat WriteBatchContext and the chunked
// cross-tile ingest (which moves it across tile stores; reports are
// only ever queued against the store currently committing, because each
// tile flushes before the committer moves to the next). Methods run on
// one goroutine — the ingest caller's.
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

// commit persists one prepared fragment into st and streams whatever
// became durable. final marks st's last fragment of this ingest,
// forcing the group flush.
func (ic *ingestCommitter) commit(st *Store, idx int, j *ingestJob, final bool) {
	rep, outcome, err := st.commitPrepared(j, ic.root, final)
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

// prepareBatch runs the CPU phases for one batch on a pool worker:
// Build, Reorg, and Encode (with payload compression) into a pooled
// buffer. No file-system access happens here — that is what makes the
// committer's cost attribution exact.
func (s *Store) prepareBatch(j *ingestJob, b Batch, root *obs.Span) {
	reg := s.obsReg()
	kind := s.curKind().String()
	rep := &WriteReport{NNZ: b.Coords.Len()}

	format := s.curFormat()
	if s.buildOpts != nil {
		format = core.Configure(format, *s.buildOpts)
	}
	sp := root.Child(obsWriteBuild)
	t := time.Now()
	built, err := format.Build(b.Coords, s.shape)
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
		// Nanoseconds of work: reuse the span's duration (already in
		// the unlabeled histogram) so labeled and unlabeled agree
		// exactly — see writeLocked.
		rep.Reorg = d
	}
	reg.Histogram(obsWriteReorg, "kind", kind).Observe(rep.Reorg)

	// Encode is the CPU half of the Write phase; the committer adds the
	// file transfer on top of rep.Write, mirroring Write's breakdown.
	sp = root.Child(obsWriteWrite)
	t = time.Now()
	bbox, _ := b.Coords.Bounds()
	filt := filter.Build(b.Coords)
	frag := &fragment.Fragment{Payload: built.Payload, Values: packed}
	frag.Kind = s.curKind()
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
}

// commitPrepared persists one prepared fragment: the file write, the
// manifest commit, and the cost-model accounting, in exactly the order
// and attribution Write uses. The manifest record is staged, and
// flushed (in one Append with its group) when the checkpoint cadence is
// reached or final is set — exactly the fragment boundaries where a
// serial commit loop would have checkpointed, which is what keeps the
// on-disk bytes identical. Runs only on the
// committer goroutine.
func (s *Store) commitPrepared(j *ingestJob, root *obs.Span, final bool) (*WriteReport, commitOutcome, error) {
	reg := s.obsReg()
	kind := s.curKind().String()
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
	fr := fragRef{name: name, nnz: uint64(rep.NNZ), bytes: int64(len(enc)), bbox: j.bbox, filter: j.filter}
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
	rep.Others += j.extraOthers
	sp.Add(j.extraOthers)
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

// recycleJob returns a job's pooled encode buffer. Idempotent.
func recycleJob(j *ingestJob) {
	if j.encoded != nil {
		encodePool.Put(j.encoded)
		j.encoded = nil
	}
}
