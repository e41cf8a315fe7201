package store

import (
	"context"
	"testing"

	"sparseart/internal/tensor"
)

// storeConfigs is the configuration matrix: every option set under
// which the store must behave byte-identically to the default. The
// all-kinds differential oracle, the race hammer, the FaultFS crash
// sweeps and the chunked ≡ flat test take it as one more input
// (eachStoreConfig), so a defect that only shows with the reader cache
// off or evicting on every insert, or with the manifest log folded on
// every commit or never folded, fails a named subtest. A new
// behaviour-preserving option earns a row here, not a CI re-run.
var storeConfigs = []struct {
	name string
	opts []Option
}{
	{"default", nil},
	{"cache-off", []Option{WithReaderCache(0)}},
	{"cache-1B", []Option{WithReaderCache(1)}},
	{"ckpt-every-1", []Option{WithManifestCheckpointEvery(1)}},
	{"ckpt-never", []Option{WithManifestCheckpointEvery(1 << 20)}},
}

// eachStoreConfig runs fn once per storeConfigs row, as a subtest named
// after the row.
func eachStoreConfig(t *testing.T, fn func(t *testing.T, opts []Option)) {
	for _, cfg := range storeConfigs {
		t.Run(cfg.name, func(t *testing.T) { fn(t, cfg.opts) })
	}
}

// The tests below read through the request API; these helpers only
// spell the requests most of them make.

// querier is the read surface Store and Chunked share.
type querier interface {
	Query(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error)
}

// readProbe looks probe up in the latest version.
func readProbe(q querier, probe *tensor.Coords) (*Result, *ReadReport, error) {
	return q.Query(context.Background(), QueryRequest{Probe: probe, AsOf: AsOfLatest})
}

// readRegion reads region from the latest version with the given
// strategy.
func readRegion(q querier, region tensor.Region, strategy Strategy) (*Result, *ReadReport, error) {
	return q.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: strategy})
}

// readPooled is readProbe on a pool of workers fragment workers.
func readPooled(q querier, probe *tensor.Coords, workers int) (*Result, *ReadReport, error) {
	return q.Query(context.Background(), QueryRequest{Probe: probe, AsOf: AsOfLatest, Workers: workers})
}

// readAsOf looks probe up in the store's state after its first version
// fragments.
func readAsOf(q querier, probe *tensor.Coords, version int) (*Result, *ReadReport, error) {
	return q.Query(context.Background(), QueryRequest{Probe: probe, AsOf: int64(version)})
}

// readPoints is readProbe laid out along the probe by AlignPoints.
func readPoints(q querier, probe *tensor.Coords) ([]float64, []bool, *ReadReport, error) {
	res, rep, err := readProbe(q, probe)
	if err != nil {
		return nil, nil, nil, err
	}
	vals, found := AlignPoints(probe, res)
	return vals, found, rep, nil
}

// kernel runs one push-down kernel.
func kernel(st *Store, req KernelRequest) (*KernelResult, error) {
	return st.Kernel(context.Background(), req)
}
