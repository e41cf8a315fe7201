package store

import (
	"cmp"
	"context"
	"slices"
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

// tileWork is one tile's span of an ingest: the tile and its fragments
// in batch order.
type tileWork struct {
	name  string
	idx   []uint64
	items []tileFrag
}

// WriteBatchContext ingests the batches across every tile they touch
// and returns one report per batch, in batch order: a batch spanning k
// tiles writes k fragments, whose reports fold into its one (rep.Name
// is its first fragment's), and a batch of no points keeps a zero
// report. Commit order is sorted tile names outer, batch order inner —
// the order of one one-batch ingest per (tile, batch) — and the on-disk
// result is byte-identical to that loop. workers bounds the shared
// CPU-stage pool (< 1 means all cores). Error and cancellation
// semantics match Store.WriteBatchContext: the committed prefix stays
// durable, and no reports are returned. When ctx carries a sampled
// trace, the ingest's spans join it.
func (c *Chunked) WriteBatchContext(ctx context.Context, batches []Batch, workers int) ([]*WriteReport, error) {
	// Validate every batch before any I/O, so a failure (a point outside
	// the shape) rejects the whole call with nothing committed.
	if err := ValidateBatches(batches, c.tiling.Shape); err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		return nil, nil
	}
	byName := map[string]*tileWork{}
	var works []*tileWork
	for i, b := range batches {
		for _, p := range c.partition(nil, b.Coords, b.Values) {
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

	reg := c.obsReg()
	kind := c.kind.String()
	root, _ := reg.StartCtx(ctx, obsChunkedIngest)
	defer root.End()

	// Materialize every touched tile store up front, in commit order;
	// each creation's modeled cost is charged to that tile's first
	// fragment, and the flat fragment list comes out in (tile, batch)
	// order.
	dir, setup, err := c.materialize(works)
	if err != nil {
		return nil, err
	}
	frags := make([]tileFrag, 0, len(batches))
	for _, w := range works {
		st := dir.byName[w.name].store
		for n := range w.items {
			w.items[n].store = st
			w.items[n].final = n == len(w.items)-1
		}
		w.items[0].setup = setup[w.name]
		frags = append(frags, w.items...)
	}

	workers = resolveIngestWorkers(workers, len(frags))
	reg.Gauge("store.chunked.ingest.workers", "kind", kind).Set(int64(workers))
	reps, err := ingest(ctx, frags, len(batches), workers, root)
	if err != nil {
		reg.Counter("store.write.errors", "kind", kind).Inc()
		return nil, err
	}
	reg.Counter("store.chunked.ingest.count", "kind", kind).Inc()
	reg.Counter("store.chunked.ingest.fragments", "kind", kind).Add(int64(len(frags)))
	reg.Counter("store.chunked.ingest.tiles", "kind", kind).Add(int64(len(works)))
	return reps, nil
}

// WriteBatch is WriteBatchContext without a context.
func (c *Chunked) WriteBatch(batches []Batch, workers int) ([]*WriteReport, error) {
	return c.WriteBatchContext(context.Background(), batches, workers)
}

// takeCost drains the backend's modeled cost (zero when the FS has no
// cost model), so tile-creation cost can be attributed explicitly.
func (c *Chunked) takeCost() time.Duration {
	if cr, ok := c.fs.(fsim.CostReporter); ok {
		return cr.TakeCost().Total()
	}
	return 0
}
