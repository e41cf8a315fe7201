package store

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// TestOpenChunkedRoundTrip checks chunked-store persistence: a store
// reopened through the CHUNKED manifest rediscovers every tile and
// answers reads identically to the original.
func TestOpenChunkedRoundTrip(t *testing.T) {
	shape := tensor.Shape{30, 30}
	tile := tensor.Shape{8, 8}
	fs := newSim(t)
	c, err := NewChunked(fs, "c", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, b := range ingestBatches(rng, shape, 4, 80) {
		if _, err := c.Write(b.Coords, b.Values); err != nil {
			t.Fatal(err)
		}
	}
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{30, 30}}
	want, _, err := c.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest})
	if err != nil {
		t.Fatal(err)
	}
	tiles := c.Tiles()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenChunked(fs, "c")
	if err != nil {
		t.Fatalf("open chunked: %v", err)
	}
	defer re.Close()
	if re.Kind() != core.CSF || !re.Shape().Equal(shape) || !re.Tile().Equal(tile) {
		t.Fatalf("reopened config: kind=%v shape=%v tile=%v", re.Kind(), re.Shape(), re.Tile())
	}
	if re.Tiles() != tiles {
		t.Fatalf("reopened %d tiles, want %d", re.Tiles(), tiles)
	}
	got, _, err := re.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Coords.Flat(), want.Coords.Flat()) || !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatal("reopened store answers differently")
	}

	// Writes keep working after reopen and land in existing tiles.
	if _, err := re.Write(mustFromFlat(t, 2, 1, 2), []float64{42}); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}

// TestOpenChunkedMissingManifest rejects prefixes NewChunked never
// touched.
func TestOpenChunkedMissingManifest(t *testing.T) {
	if _, err := OpenChunked(newSim(t), "nope"); err == nil {
		t.Fatal("opened a chunked store with no manifest")
	}
}

func mustFromFlat(t *testing.T, dims int, flat ...uint64) *tensor.Coords {
	t.Helper()
	c, err := tensor.FromFlat(dims, flat)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryContextCanceled: a pre-canceled context stops a region read
// before any fragment work.
func TestQueryContextCanceled(t *testing.T) {
	st, err := Create(newSim(t), "s", core.COO, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if _, err := st.Write(mustFromFlat(t, 2, i, i), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{10, 10}}
	for _, strat := range []Strategy{StrategyDefault, StrategyScan, StrategyAuto} {
		_, _, err := st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: strat})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %v: err = %v, want context.Canceled", strat, err)
		}
	}
	// The probe path too.
	_, _, err = st.Query(ctx, QueryRequest{Probe: region.Coords(), AsOf: AsOfLatest})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("probe: err = %v, want context.Canceled", err)
	}
}

// TestWriteBatchContextCanceled: a pre-canceled context commits
// nothing and reports nothing; the store is unchanged.
func TestWriteBatchContextCanceled(t *testing.T) {
	st, err := Create(newSim(t), "s", core.COO, tensor.Shape{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batches := ingestBatches(rng, tensor.Shape{20, 20}, 4, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reps, err := st.WriteBatchContext(ctx, batches, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(reps) != 0 || st.Fragments() != 0 {
		t.Fatalf("canceled ingest returned %d reports, committed %d fragments", len(reps), st.Fragments())
	}
}

// TestKernelContextCanceled: push-down kernels observe cancellation.
func TestKernelContextCanceled(t *testing.T) {
	st, err := Create(newSim(t), "s", core.COO, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(mustFromFlat(t, 2, 1, 1, 2, 2), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Kernel(ctx, KernelRequest{Op: KernelSumAll}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sum: err = %v, want context.Canceled", err)
	}
	if _, err := st.Kernel(ctx, KernelRequest{Op: KernelLiveNNZ}); !errors.Is(err, context.Canceled) {
		t.Fatalf("nnz: err = %v, want context.Canceled", err)
	}
}
