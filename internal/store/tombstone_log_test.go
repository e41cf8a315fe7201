package store

import (
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// Tests for log-structured tombstones: DeleteRegion appends a manifest
// record instead of writing a deletion fragment file, so the record
// must replay from the delta log, survive checkpoint folds, and behave
// like any other manifest record under torn-tail and injected-failure
// crashes.

// tombTestStore builds a store with one 20-point fragment and returns
// the sim, the store, and the reference model. The checkpoint cadence
// is effectively off so records stay in the delta log.
func tombTestStore(t *testing.T) (*fsim.SimFS, *Store, *model) {
	t.Helper()
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	st, err := Create(sim, "t", core.COO, shape, WithManifestCheckpointEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	c, v := randomPoints(rng, shape, 20)
	if _, err := st.Write(c, v); err != nil {
		t.Fatal(err)
	}
	ref := newModel(t, shape)
	ref.write(c, v)
	return sim, st, ref
}

// applyDelete removes the region's cells from the model.
func (m *model) applyDelete(region tensor.Region) {
	p := make([]uint64, len(region.Start))
	for addr := range m.data {
		m.lin.Delinearize(addr, p)
		if region.Contains(p) {
			delete(m.data, addr)
		}
	}
}

// verifyModel checks the store's full contents against the model.
func verifyModel(t *testing.T, st *Store, ref *model, when string) {
	t.Helper()
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatalf("%s: export: %v", when, err)
	}
	if coords.Len() != len(ref.data) {
		t.Fatalf("%s: %d cells, want %d", when, coords.Len(), len(ref.data))
	}
	for i := 0; i < coords.Len(); i++ {
		if ref.data[ref.lin.Linearize(coords.At(i))] != vals[i] {
			t.Fatalf("%s: cell %v wrong", when, coords.At(i))
		}
	}
}

// TestTombstoneLogStructured: a delete writes no fragment file — the
// manifest record is the tombstone — and replays from the delta log on
// reopen.
func TestTombstoneLogStructured(t *testing.T) {
	sim, st, ref := tombTestStore(t)
	region, err := tensor.NewRegion(st.Shape(), []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.DeleteRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes <= 0 || rep.Name != "" {
		t.Fatalf("tombstone report: Bytes=%d Name=%q, want a framed record and no file", rep.Bytes, rep.Name)
	}
	names, err := sim.List("t/frag-")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("%d fragment files after delete, want 1 (tombstones are log records)", len(names))
	}
	if st.Fragments() != 2 {
		t.Fatalf("manifest lists %d entries, want 2 (data + tombstone)", st.Fragments())
	}
	if stats := st.Stats(); stats.Tombstones != 1 {
		t.Fatalf("stats count %d tombstones, want 1", stats.Tombstones)
	}
	ref.applyDelete(region)
	verifyModel(t, st, ref, "live handle")
	// Replay from the delta log (no checkpoint ran).
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	verifyModel(t, st2, ref, "reopen from log")
	if stats := st2.Stats(); stats.Tombstones != 1 {
		t.Fatalf("replayed %d tombstones, want 1", stats.Tombstones)
	}
}

// TestTombstoneSurvivesCheckpoint: folding the log into a MANIFEST
// checkpoint preserves the tombstone, and ReadAsOf still sees the
// pre-delete state.
func TestTombstoneSurvivesCheckpoint(t *testing.T) {
	sim, st, ref := tombTestStore(t)
	// A known point inside the region-to-be-deleted, so the ReadAsOf
	// check below never depends on where the random fixture landed.
	inside := tensor.NewCoords(2, 0)
	inside.Append(5, 5)
	if _, err := st.Write(inside, []float64{77}); err != nil {
		t.Fatal(err)
	}
	ref.write(inside, []float64{77})
	region, err := tensor.NewRegion(st.Shape(), []uint64{4, 4}, []uint64{6, 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ref.applyDelete(region)
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	verifyModel(t, st2, ref, "reopen from checkpoint")
	// Version 2 is the store before the tombstone committed (two data
	// fragments); the (5,5)=77 write is still visible there.
	res, _, err := readAsOf(st2, inside, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 1 || res.Values[0] != 77 {
		t.Fatalf("ReadAsOf(2): got %d cells, want the pre-delete value 77", res.Coords.Len())
	}
	// At the current version the tombstone hides it.
	res, _, err = readProbe(st2, inside)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 0 {
		t.Fatalf("tombstoned cell still visible after checkpoint fold")
	}
}

// TestTombstoneTornRecord: a torn tombstone record at the log's tail is
// dropped on replay (the delete never committed) and the log repaired
// to its clean prefix; the store stays fully usable.
func TestTombstoneTornRecord(t *testing.T) {
	sim, st, ref := tombTestStore(t)
	cleanSize, err := sim.Size("t/" + manifestLogName)
	if err != nil {
		t.Fatal(err)
	}
	region, err := tensor.NewRegion(st.Shape(), []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
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
	// The torn tombstone is gone: the full pre-delete contents are back.
	verifyModel(t, st2, ref, "reopen after torn tombstone")
	if stats := st2.Stats(); stats.Tombstones != 0 {
		t.Fatalf("torn log replayed %d tombstones, want 0", stats.Tombstones)
	}
	if n, _ := sim.Size("t/" + manifestLogName); n != cleanSize {
		t.Fatalf("repaired log is %d bytes, want the %d-byte clean prefix", n, cleanSize)
	}
	// Re-issuing the delete commits cleanly and survives another reopen.
	if _, err := st2.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	ref.applyDelete(region)
	verifyModel(t, st2, ref, "redone delete")
	st3, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	verifyModel(t, st3, ref, "reopen after redone delete")
}

// TestTombstoneAppendCrash: an injected failure on the log append makes
// DeleteRegion fail without any partial effect — the live handle and a
// reopened store both still serve the full contents.
func TestTombstoneAppendCrash(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	ff := fsim.NewFaultFS(sim)
	st, err := Create(ff, "t", core.CSF, shape, WithManifestCheckpointEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	c, v := randomPoints(rng, shape, 20)
	if _, err := st.Write(c, v); err != nil {
		t.Fatal(err)
	}
	ref := newModel(t, shape)
	ref.write(c, v)
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	ff.FailOn = manifestLogName
	if _, err := st.DeleteRegion(region); err == nil {
		t.Fatal("delete succeeded despite injected log failure")
	}
	ff.FailOn = ""
	if st.Fragments() != 1 {
		t.Fatalf("failed delete left %d manifest entries, want 1", st.Fragments())
	}
	verifyModel(t, st, ref, "live handle after failed delete")
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	verifyModel(t, st2, ref, "reopen after failed delete")
	// The retry commits.
	if _, err := st2.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	ref.applyDelete(region)
	verifyModel(t, st2, ref, "retried delete")
}
