package store

import (
	"context"

	"sparseart/internal/tensor"
)

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
