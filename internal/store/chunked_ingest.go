package store

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/fsim"
)

// Cross-tile batched ingest: one logical batch list fans out across
// every tile it touches. Each batch is partitioned by tile, all
// resulting per-tile fragments are prepared (Build/Reorg/Encode) on a
// single shared worker pool — so a batch straddling many tiles still
// saturates the machine instead of parallelizing only within one tile —
// and the committer lands them in deterministic (tile, fragment) order:
// sorted tile keys outer, batch order inner, exactly the order a serial
// per-tile Write loop produces. The result is byte-identical to that
// loop, and with group commit each tile's manifest log takes one Append
// per checkpoint interval, so the metadata cost of an N-fragment
// cross-tile batch is O(tiles), not O(fragments).

// obsChunkedIngest is the root span around one cross-tile ingest; the
// per-fragment store.write.* phase spans nest under it.
const obsChunkedIngest = "store.chunked.ingest"

// tileFrag is one fragment of a cross-tile ingest: a batch's slice
// landing in one tile, in commit order.
type tileFrag struct {
	store *Store
	idx   int // logical batch index, reported to fn
	batch Batch
	final bool          // last fragment for this tile → forces its group flush
	setup time.Duration // tile-store creation cost, charged to the tile's first fragment
}

// WriteBatchContext ingests the batches across every tile they touch,
// streaming per-fragment reports. A batch spanning k tiles yields k
// fragments; fn receives each with the batch's index (rep.Name carries
// the tile prefix), after the fragment is durable in its tile's
// manifest. Commit order is sorted tile keys outer, batch order inner —
// a serial per-tile Write loop's order — and the on-disk result is
// byte-identical to that loop. workers bounds the shared CPU-stage pool
// (< 1 means the WithIngestWorkers default, or all cores). Error,
// early-stop and cancellation semantics match Store.WriteBatchContext:
// the committed prefix stays durable, and fn sees at most one non-nil
// error.
func (c *Chunked) WriteBatchContext(ctx context.Context, batches []Batch, workers int, fn func(i int, rep *WriteReport, err error) error) error {
	if err := validateBatches(batches, c.shape.Dims()); err != nil {
		return err
	}
	if len(batches) == 0 {
		return nil
	}

	// Partition every batch by tile before any I/O, so a validation
	// failure (a point outside the shape) rejects the whole call with
	// nothing committed.
	type tileWork struct {
		idx   []uint64
		items []tileFrag
	}
	works := map[string]*tileWork{}
	var keys []string
	for i, b := range batches {
		parts, pkeys, err := c.partitionByTile(b.Coords, b.Values)
		if err != nil {
			return fmt.Errorf("store: batch %d: %w", i, err)
		}
		for _, key := range pkeys {
			p := parts[key]
			w, ok := works[key]
			if !ok {
				w = &tileWork{idx: p.idx}
				works[key] = w
				keys = append(keys, key)
			}
			w.items = append(w.items, tileFrag{idx: i, batch: Batch{Coords: p.coords, Values: p.vals}})
		}
	}
	sort.Strings(keys)

	reg := c.obsReg()
	kind := c.kind.String()
	root := reg.Start(obsChunkedIngest)
	defer root.End()

	// Materialize every touched tile store up front, in commit order;
	// each creation's modeled cost is charged to that tile's first
	// fragment (a serial loop pays it inside tileStore on first touch),
	// and the flat fragment list comes out in (tile, batch) order.
	c.takeCost() // discard any cost accrued outside this call
	frags := make([]tileFrag, 0, len(batches))
	for _, key := range keys {
		w := works[key]
		st, err := c.tileStore(w.idx)
		if err != nil {
			return err
		}
		setup := c.takeCost()
		for n := range w.items {
			w.items[n].store = st
			w.items[n].final = n == len(w.items)-1
			if n == 0 {
				w.items[n].setup = setup
			}
			frags = append(frags, w.items[n])
		}
	}

	workers = resolveIngestWorkers(workers, c.ingestWorkers, len(frags))
	reg.Gauge("store.chunked.ingest.workers", "kind", kind).Set(int64(workers))

	// One shared CPU-stage pool over every tile's fragments (the ISSUE's
	// psort-bounded pool: resolveIngestWorkers delegates to
	// psort.Workers). Workers only run prepareBatch — no file-system
	// access — so mixing tiles in one pool is safe; each fragment
	// prepares against its own tile's store (tile shapes are
	// edge-clipped, so Build must see the right local shape). The
	// committer below serializes all I/O.
	jobs := make([]ingestJob, len(frags))
	for i := range jobs {
		jobs[i].done = make(chan struct{})
		jobs[i].extraOthers = frags[i].setup
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
					frags[i].store.prepareBatch(&jobs[i], frags[i].batch, root)
				}
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

	// Commit stage on the caller's goroutine, moving the shared
	// committer across tile stores in order. A tile's last fragment is
	// "final": its group flushes before the committer advances to the
	// next tile, so queued reports always belong to the store currently
	// committing. The committer holds each tile store's writer lock for
	// that tile's span of fragments — one mutation stream per tile —
	// releasing it as it advances.
	ic := &ingestCommitter{root: root, fn: fn}
	var locked *Store
	lockTile := func(st *Store) {
		if locked == st {
			return
		}
		if locked != nil {
			locked.writeMu.Unlock()
		}
		st.writeMu.Lock()
		locked = st
	}
	for i := range jobs {
		<-jobs[i].done
		j := &jobs[i]
		if ic.firstErr != nil {
			recycleJob(j)
			continue
		}
		lockTile(frags[i].store)
		if err := ctx.Err(); err != nil {
			recycleJob(j)
			ic.failPrepared(frags[i].store, frags[i].idx, err)
		} else if j.err != nil {
			ic.failPrepared(frags[i].store, frags[i].idx, j.err)
		} else {
			ic.commit(frags[i].store, frags[i].idx, j, frags[i].final)
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
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return ic.firstErr
	}
	reg.Counter("store.chunked.ingest.count", "kind", kind).Inc()
	reg.Counter("store.chunked.ingest.fragments", "kind", kind).Add(int64(ic.committed))
	reg.Counter("store.chunked.ingest.tiles", "kind", kind).Add(int64(len(keys)))
	return nil
}

// WriteBatch is the collecting form of the cross-tile ingest: the
// per-fragment reports in commit order (a batch spanning k tiles
// contributes k reports; rep.Name identifies the tile). On error no
// report list is returned (the committed prefix is durable regardless).
func (c *Chunked) WriteBatch(batches []Batch, workers int) ([]*WriteReport, error) {
	return collectReports(batches, workers, c.WriteBatchContext)
}

// takeCost drains the backend's modeled cost (zero when the FS has no
// cost model), so tile-creation cost can be attributed explicitly.
func (c *Chunked) takeCost() time.Duration {
	if cr, ok := c.fs.(fsim.CostReporter); ok {
		return cr.TakeCost().Total()
	}
	return 0
}
