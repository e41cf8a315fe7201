package store

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sparseart/internal/fsim"
)

// Cross-tile batched ingest: one logical batch list fans out across
// every tile it touches. Each batch is partitioned by tile and the
// resulting per-tile fragments go through the store's one ingest driver
// (ingest.go) in deterministic (tile, fragment) order — sorted tile keys
// outer, batch order inner — so a batch straddling many tiles prepares
// on one shared worker pool instead of parallelizing only within a
// tile, and each tile's manifest log takes one Append per checkpoint
// interval: the metadata cost of an N-fragment cross-tile batch is
// O(tiles), not O(fragments).

// obsChunkedIngest is the root span around one cross-tile ingest; the
// per-fragment store.write.* phase spans nest under it.
const obsChunkedIngest = "store.chunked.ingest"

// WriteBatchContext ingests the batches across every tile they touch,
// streaming per-fragment reports. A batch spanning k tiles yields k
// fragments; fn receives each with the batch's index (rep.Name carries
// the tile prefix), after the fragment is durable in its tile's
// manifest. Commit order is sorted tile keys outer, batch order inner —
// the order of one one-batch ingest per (tile, batch) — and the on-disk
// result is byte-identical to that loop. workers bounds the shared
// CPU-stage pool (< 1 means all cores). Error, early-stop and
// cancellation semantics match Store.WriteBatchContext: the committed
// prefix stays durable, and fn sees at most one non-nil error.
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
	// fragment, and the flat fragment list comes out in (tile, batch)
	// order.
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

	workers = resolveIngestWorkers(workers, len(frags))
	reg.Gauge("store.chunked.ingest.workers", "kind", kind).Set(int64(workers))
	committed, err := ingest(ctx, frags, workers, root, fn)
	if err != nil {
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return err
	}
	reg.Counter("store.chunked.ingest.count", "kind", kind).Inc()
	reg.Counter("store.chunked.ingest.fragments", "kind", kind).Add(int64(committed))
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
