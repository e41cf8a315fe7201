package sparseart_test

import (
	"context"

	"sparseart"
)

// querier is the read surface Store and ChunkedStore share; the helpers
// below only spell the requests most tests and benchmarks make.
type querier interface {
	Query(ctx context.Context, req sparseart.QueryRequest) (*sparseart.Result, *sparseart.ReadReport, error)
}

// queryProbe looks probe up in the latest version.
func queryProbe(q querier, probe *sparseart.Coords) (*sparseart.Result, *sparseart.ReadReport, error) {
	return q.Query(context.Background(), sparseart.QueryRequest{Probe: probe, AsOf: sparseart.AsOfLatest})
}

// queryRegion reads region from the latest version with the given
// strategy.
func queryRegion(q querier, region sparseart.Region, strategy sparseart.QueryStrategy) (*sparseart.Result, *sparseart.ReadReport, error) {
	return q.Query(context.Background(), sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest, Strategy: strategy})
}

// queryPoints is queryProbe laid out along the probe by AlignPoints.
func queryPoints(q querier, probe *sparseart.Coords) ([]float64, []bool, error) {
	res, _, err := queryProbe(q, probe)
	if err != nil {
		return nil, nil, err
	}
	vals, found := sparseart.AlignPoints(probe, res)
	return vals, found, nil
}
