package store

import (
	"errors"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// writeBand writes one fragment covering rows {2i, 2i+1} of an 8x8
// store, the same banding as the cache tests.
func writeBand(t *testing.T, st *Store, i uint64) {
	t.Helper()
	c := tensor.NewCoords(2, 0)
	var vals []float64
	for col := uint64(0); col < 8; col++ {
		c.Append(2*i, col)
		c.Append(2*i+1, col)
		vals = append(vals, float64(i), float64(i)+0.5)
	}
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
}

func TestWarmOnOpen(t *testing.T) {
	fs := newSim(t)
	shape := tensor.Shape{8, 8}
	st, err := Create(fs, "t", core.GCSR, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		writeBand(t, st, i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	st, err = Open(fs, "t", WithObs(reg), WithReaderCache(DefaultCacheBudget), WithWarmFragments(2))
	if err != nil {
		t.Fatal(err)
	}
	warmed := reg.Snapshot().Counters[obs.Name("fragcache.warmed", "kind", core.GCSR.String())]
	if warmed != 2 {
		t.Fatalf("warmed %d fragments, want 2", warmed)
	}

	// The two newest fragments (rows 4..7) are cache-resident: reading
	// them performs zero file-system operations.
	fs.ResetStats()
	region, err := tensor.NewRegion(shape, []uint64{4, 0}, []uint64{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := readRegion(st, region, StrategyDefault)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 32 || rep.Fragments != 2 {
		t.Fatalf("read found %d points over %d fragments, want 32 over 2", res.Coords.Len(), rep.Fragments)
	}
	if stats := fs.Stats(); stats.ReadOps != 0 || stats.MetaOps != 0 {
		t.Errorf("read of warmed fragments touched the file system: %+v", stats)
	}

	// The oldest fragments were not warmed: reading them is a cold load.
	fs.ResetStats()
	region, err = tensor.NewRegion(shape, []uint64{0, 0}, []uint64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRegion(st, region, StrategyDefault); err != nil {
		t.Fatal(err)
	}
	if stats := fs.Stats(); stats.ReadOps == 0 {
		t.Error("unwarmed fragment read performed no file I/O — warming loaded more than asked")
	}
}

func TestWarmSkipsTombstones(t *testing.T) {
	fs := newSim(t)
	shape := tensor.Shape{8, 8}
	st, err := Create(fs, "t", core.GCSR, shape)
	if err != nil {
		t.Fatal(err)
	}
	writeBand(t, st, 0)
	writeBand(t, st, 1)
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The newest manifest entry is the tombstone; warming 1 must load
	// the newest data fragment (rows 2..3) instead of counting the
	// tombstone against the budget.
	reg := obs.New()
	st, err = Open(fs, "t", WithObs(reg), WithReaderCache(DefaultCacheBudget), WithWarmFragments(1))
	if err != nil {
		t.Fatal(err)
	}
	warmed := reg.Snapshot().Counters[obs.Name("fragcache.warmed", "kind", core.GCSR.String())]
	if warmed != 1 {
		t.Fatalf("warmed %d fragments, want 1", warmed)
	}
	// Rows 0..1 are deleted; rows 2..3 survive in the warmed fragment.
	fs.ResetStats()
	region, err = tensor.NewRegion(shape, []uint64{2, 0}, []uint64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := readRegion(st, region, StrategyDefault)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 16 {
		t.Fatalf("read found %d points, want 16", res.Coords.Len())
	}
	if stats := fs.Stats(); stats.ReadOps != 0 {
		t.Errorf("warmed fragment read still hit the file system: %+v", stats)
	}
}

func TestWarmWithoutCache(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.GCSR, tensor.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	writeBand(t, st, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	if _, err := Open(fs, "t", WithObs(reg), WithReaderCache(0), WithWarmFragments(4)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters[obs.Name("fragcache.warmed", "kind", core.GCSR.String())]; n != 0 {
		t.Fatalf("cache-less store warmed %d fragments", n)
	}
}

func TestWarmNegativeRejected(t *testing.T) {
	fs := newSim(t)
	if _, err := Create(fs, "t", core.GCSR, tensor.Shape{8, 8}, WithWarmFragments(-1)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("WithWarmFragments(-1) = %v, want ErrBadOption", err)
	}
}

// TestWarmedBytesCounter: fragcache.warmed_bytes counts the encoded
// size of exactly the fragments warming loaded.
func TestWarmedBytesCounter(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.GCSR, tensor.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		writeBand(t, st, i)
	}
	size := st.frags[len(st.frags)-1].bytes // equal-sized bands
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	if _, err := Open(fs, "t", WithObs(reg), WithWarmFragments(2)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n := snap.Counters[obs.Name("fragcache.warmed", "kind", core.GCSR.String())]; n != 2 {
		t.Fatalf("warmed %d fragments, want 2", n)
	}
	if n := snap.Counters[obs.Name("fragcache.warmed_bytes", "kind", core.GCSR.String())]; n != 2*size {
		t.Fatalf("warmed %d bytes, want %d", n, 2*size)
	}
}

func TestStoreObsAccessor(t *testing.T) {
	fs := newSim(t)
	reg := obs.New()
	st, err := Create(fs, "t", core.GCSR, tensor.Shape{8, 8}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	if st.Obs() != reg {
		t.Fatal("Store.Obs() does not return the injected registry")
	}
}
