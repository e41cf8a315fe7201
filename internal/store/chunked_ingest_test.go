package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// TestChunkedWriteBatchMatchesSerialWrites is the cross-tile
// differential property test: for every paper organization, a
// (group-committing) Chunked.WriteBatch must leave the file system
// byte-identical to the serial loop of Chunked.Write — same tile
// directories, same fragment bytes, same per-tile manifest state — and
// answer reads identically. Under -race this also exercises the shared
// worker pool preparing fragments of different tiles concurrently.
func TestChunkedWriteBatchMatchesSerialWrites(t *testing.T) {
	shape := tensor.Shape{30, 30}
	tile := tensor.Shape{8, 8} // does not divide evenly: edge tiles clip
	region, err := tensor.NewRegion(shape, []uint64{2, 2}, []uint64{22, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			batches := ingestBatches(rng, shape, 5, 120)
			fsA, fsB := newSim(t), newSim(t)
			a, err := NewChunked(fsA, "c", kind, shape, tile)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewChunked(fsB, "c", kind, shape, tile)
			if err != nil {
				t.Fatal(err)
			}
			for _, ba := range batches {
				if _, err := a.Write(ba.Coords, ba.Values); err != nil {
					t.Fatal(err)
				}
			}
			reps, err := b.WriteBatch(batches, 4)
			if err != nil {
				t.Fatal(err)
			}
			// One report per (batch, tile) fragment; every report names a
			// fragment inside a tile directory.
			if len(reps) < len(batches) {
				t.Fatalf("%d reports for %d batches", len(reps), len(batches))
			}
			for i, rep := range reps {
				if rep.Name == "" || !strings.Contains(rep.Name, "/t-") || rep.Bytes <= 0 {
					t.Fatalf("report %d: %+v", i, rep)
				}
			}
			namesA, _ := fsA.List("")
			namesB, _ := fsB.List("")
			if len(namesA) != len(namesB) {
				t.Fatalf("file sets differ:\n serial %v\n batch  %v", namesA, namesB)
			}
			for i, n := range namesA {
				if namesB[i] != n {
					t.Fatalf("file name %q vs %q", n, namesB[i])
				}
				da, _ := fsA.ReadFile(n)
				db, _ := fsB.ReadFile(n)
				if !bytes.Equal(da, db) {
					t.Fatalf("%s differs: %d vs %d bytes", n, len(da), len(db))
				}
			}
			resA, _, err := readRegion(a, region, StrategyDefault)
			if err != nil {
				t.Fatal(err)
			}
			resB, _, err := readRegion(b, region, StrategyDefault)
			if err != nil {
				t.Fatal(err)
			}
			if !resA.Coords.Equal(resB.Coords) {
				t.Fatalf("read found %d vs %d cells", resA.Coords.Len(), resB.Coords.Len())
			}
			for i := range resA.Values {
				if resA.Values[i] != resB.Values[i] {
					t.Fatalf("value %d: %v vs %v", i, resA.Values[i], resB.Values[i])
				}
			}
		})
	}
}

// TestChunkedWriteBatchReportsPerBatch pins what the cross-tile ingest
// answers: one report per batch, in batch order, each the fold of the
// batch's tile fragments — its points, and the name of its first
// fragment in commit order — and everything reported is already
// durable.
func TestChunkedWriteBatchReportsPerBatch(t *testing.T) {
	shape := tensor.Shape{16, 16}
	tile := tensor.Shape{8, 8}
	sim := newSim(t)
	st, err := NewChunked(sim, "s", core.Linear, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	// Two batches, each with one point in tile t-0-0 and one in t-1-1:
	// four fragments, two reports.
	mk := func(seed float64) Batch {
		c := tensor.NewCoords(2, 0)
		c.Append(1, 1)
		c.Append(9, 9)
		return Batch{Coords: c, Values: []float64{seed, seed + 1}}
	}
	batches := []Batch{mk(1), mk(3)}
	reps, err := st.WriteBatchContext(context.Background(), batches, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(batches) {
		t.Fatalf("%d reports for %d batches", len(reps), len(batches))
	}
	for i, rep := range reps {
		if rep.NNZ != 2 || !strings.Contains(rep.Name, "t-0-0") || rep.Bytes == 0 {
			t.Fatalf("report %d: nnz=%d name=%s bytes=%d, want 2 points, first fragment in t-0-0",
				i, rep.NNZ, rep.Name, rep.Bytes)
		}
	}
	// Everything reported is durable: fresh opens of both tiles see both
	// fragments each.
	for _, key := range []string{"t-0-0", "t-1-1"} {
		tileSt, err := Open(sim, "s/"+key)
		if err != nil {
			t.Fatal(err)
		}
		if tileSt.Fragments() != 2 {
			t.Fatalf("tile %s: %d fragments, want 2", key, tileSt.Fragments())
		}
	}
}

// TestChunkedSharedCacheBudget is the one-budget property test: all
// tiles resolve fragments through one cache, whose resident bytes never
// exceed the shared budget no matter how many tiles are read, and whose
// per-tile traffic stays observable through scope-labeled counters.
func TestChunkedSharedCacheBudget(t *testing.T) {
	shape := tensor.Shape{32, 32}
	tile := tensor.Shape{8, 8} // 16 tiles
	reg := obs.New()
	st, err := NewChunked(newSim(t), "s", core.GCSR, shape, tile,
		WithObs(reg), WithReaderCache(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	shared := st.SharedCache()
	if shared == nil || shared.Budget() != 16<<10 {
		t.Fatal("the reader-cache budget did not become the tiles' one shared cache")
	}
	rng := rand.New(rand.NewSource(13))
	coords, vals := randomPoints(rng, shape, 600)
	if _, err := st.Write(coords, vals); err != nil {
		t.Fatal(err)
	}
	if st.Tiles() != 16 {
		t.Fatalf("tiles = %d, want 16", st.Tiles())
	}
	// Read every tile's region twice; after every read the cache must
	// respect the single shared budget.
	for pass := 0; pass < 2; pass++ {
		for ti := uint64(0); ti < 4; ti++ {
			for tj := uint64(0); tj < 4; tj++ {
				region, err := tensor.NewRegion(shape, []uint64{ti * 8, tj * 8}, []uint64{8, 8})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := readRegion(st, region, StrategyDefault); err != nil {
					t.Fatal(err)
				}
				if got, budget := shared.SizeBytes(), shared.Budget(); got > budget {
					t.Fatalf("resident %d bytes exceeds shared budget %d", got, budget)
				}
			}
		}
	}
	// Per-tile hit rates are attributable: scope-labeled counters exist
	// alongside the cache-wide totals.
	snap := reg.Snapshot()
	if snap.Counters["fragcache.misses"] == 0 {
		t.Fatal("no cache misses recorded")
	}
	var scoped int64
	for ti := uint64(0); ti < 4; ti++ {
		for tj := uint64(0); tj < 4; tj++ {
			scope := fmt.Sprintf("t-%d-%d", ti, tj)
			scoped += snap.Counters[obs.Name("fragcache.misses", "scope", scope)]
		}
	}
	if scoped != snap.Counters["fragcache.misses"] {
		t.Fatalf("scoped misses %d != total %d", scoped, snap.Counters["fragcache.misses"])
	}
}

// TestChunkedGroupCommitAppendCounts pins the O(tiles) metadata cost of
// a cross-tile ingest: 20 fragments over 4 tiles cost one manifest-log
// append per tile, not one per fragment.
func TestChunkedGroupCommitAppendCounts(t *testing.T) {
	shape := tensor.Shape{16, 16}
	tile := tensor.Shape{8, 8} // 4 tiles
	rng := rand.New(rand.NewSource(14))
	batches := ingestBatches(rng, shape, 5, 80) // 5 batches x 4 tiles = 20 fragments
	reg := obs.New()
	st, err := NewChunked(newSim(t), "g", core.Linear, shape, tile,
		WithObs(reg), WithManifestCheckpointEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteBatchContext(context.Background(), batches, 2); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if frags := snap.Counters[obs.Name("store.chunked.ingest.fragments", "kind", core.Linear.String())]; frags != 20 {
		t.Fatalf("%d fragments, want 20", frags)
	}
	if appends := snap.Counters[obs.Name("store.manifest.log.appends", "kind", core.Linear.String())]; appends != 4 {
		t.Fatalf("%d manifest-log appends, want 4 (one per tile)", appends)
	}
}

// TestChunkedGroupAppendFailure covers the group-flush crash: the
// manifest-log append of a whole group fails mid-ingest. The call must
// report the error, every staged fragment of the failing group must
// roll back, and fresh opens of the tiles must agree with the live
// handles.
func TestChunkedGroupAppendFailure(t *testing.T) {
	shape := tensor.Shape{16, 16}
	tile := tensor.Shape{8, 8}
	sim := newSim(t)
	ff := fsim.NewFaultFS(sim)
	st, err := NewChunked(ff, "f", core.Linear, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	batches := ingestBatches(rng, shape, 3, 40)
	ff.FailOn = manifestLogName
	reps, err := st.WriteBatchContext(context.Background(), batches, 2)
	if err == nil {
		t.Fatal("injected group-append failure not reported")
	}
	if reps != nil {
		t.Fatalf("%d reports returned beside the error, want none", len(reps))
	}
	ff.FailOn = ""
	// The first group flush failed and the ingest stopped there, so
	// nothing may be visible: every tile that was materialized reopens
	// empty.
	for _, e := range st.dir.Load().sorted {
		tileSt, err := Open(sim, "f/"+e.name)
		if err != nil {
			t.Fatal(err)
		}
		if tileSt.Fragments() != 0 {
			t.Fatalf("tile %s: %d fragments visible after rollback", e.name, tileSt.Fragments())
		}
	}
	// The same handles stay writable once the fault clears.
	if _, err := st.WriteBatchContext(context.Background(), batches, 2); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
}

// TestGroupCommitTornTail covers the torn group record: a crash cuts
// the multi-record group append mid-frame. Open must replay the clean
// prefix of the group, truncate the torn frame away, and leave the
// store writable — the group framing reuses the per-record CRC format,
// so a torn group degrades exactly like a torn single append.
func TestGroupCommitTornTail(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	st, err := Create(sim, "t", core.Linear, shape, WithManifestCheckpointEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	batches := ingestBatches(rng, shape, 5, 20)
	if _, err := st.WriteBatch(batches, 2); err != nil {
		t.Fatal(err)
	}
	// The whole ingest landed as one group append of 5 records; tear the
	// last record's frame.
	data, err := sim.ReadFile("t/" + manifestLogName)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteFile("t/"+manifestLogName, data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 4 {
		t.Fatalf("torn group replayed %d fragments, want the 4-record clean prefix", st2.Fragments())
	}
	// Writing again reuses the torn fragment's id and stays consistent.
	c, v := randomPoints(rng, shape, 10)
	if _, err := st2.Write(c, v); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st3.Fragments() != 5 {
		t.Fatalf("after repair and rewrite: %d fragments", st3.Fragments())
	}
}

// TestOptionMisuseTypedErrors pins the typed option-error contract:
// misuse surfaces from the constructors as an *OptionError matching
// ErrBadOption, naming the offending option.
func TestOptionMisuseTypedErrors(t *testing.T) {
	shape := tensor.Shape{8, 8}
	tile := tensor.Shape{4, 4}
	cases := []struct {
		name   string
		opts   []Option
		option string
	}{
		{"compaction-threshold-one", []Option{WithBackgroundCompaction(1)}, "WithBackgroundCompaction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Create(newSim(t), "t", core.COO, shape, tc.opts...)
			if err == nil {
				t.Fatal("Create accepted misused options")
			}
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("error %v does not match ErrBadOption", err)
			}
			var oe *OptionError
			if !errors.As(err, &oe) || oe.Option != tc.option {
				t.Fatalf("error %v does not carry OptionError for %s", err, tc.option)
			}
			// NewChunked validates the same option set up front, before any
			// tile store exists.
			if _, err := NewChunked(newSim(t), "c", core.COO, shape, tile, tc.opts...); !errors.Is(err, ErrBadOption) {
				t.Fatalf("NewChunked: %v does not match ErrBadOption", err)
			}
		})
	}
}
