package store

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// The READ loop's behaviour at its edges: a failing fetch, a canceled
// context, a probe with no points.

func fragmentedStore(t *testing.T, kind core.Kind, fragments int) (*Store, *tensor.Coords) {
	t.Helper()
	shape := tensor.Shape{16, 16, 16}
	rng := rand.New(rand.NewSource(int64(kind)*100 + int64(fragments)))
	fs := newSim(t)
	st, err := Create(fs, "p", kind, shape)
	if err != nil {
		t.Fatal(err)
	}
	all := tensor.NewCoords(3, 0)
	for f := 0; f < fragments; f++ {
		coords, vals := randomPoints(rng, shape, 60)
		if _, err := st.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		all.AppendFlat(coords.Flat())
	}
	return st, all
}

// TestQueryEmptyProbeReadsNothing: a probe with no points answers
// empty without fetching or even considering a fragment.
func TestQueryEmptyProbeReadsNothing(t *testing.T) {
	st, _ := fragmentedStore(t, core.CSF, 2)
	res, rep, err := readProbe(st, tensor.NewCoords(3, 0))
	if err != nil || res.Coords.Len() != 0 {
		t.Fatalf("empty probe: %v, %v", res, err)
	}
	if rep.Candidates != 0 || rep.Fragments != 0 || rep.CacheMisses != 0 || rep.BytesRead != 0 {
		t.Fatalf("empty probe read something: %+v", rep)
	}
}

// TestQueryPropagatesFetchErrors: a fragment whose load fails fails
// the query, whatever the strategy, and leaves no view pinned.
func TestQueryPropagatesFetchErrors(t *testing.T) {
	shape := tensor.Shape{8, 8}
	fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
	st, err := Create(fs, "p", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewCoords(2, 0)
	for i := uint64(0); i < 4; i++ {
		c := tensor.NewCoords(2, 0)
		c.Append(i, i)
		if _, err := st.Write(c, []float64{1}); err != nil {
			t.Fatal(err)
		}
		probe.Append(i, i)
	}
	fs.FailOn = "frag-000002"
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{8, 8}}
	for _, req := range []QueryRequest{
		{Probe: probe},
		{Region: &region},
		{Region: &region, Strategy: StrategyScan},
		{Region: &region, Strategy: StrategyAuto},
	} {
		req.AsOf = AsOfLatest
		if _, _, err := st.Query(context.Background(), req); err == nil {
			t.Fatalf("strategy %v: injected fragment failure not propagated", req.Strategy)
		}
	}
	if only(st).viewRefs != 0 {
		t.Fatalf("%d views still pinned after failed queries", only(st).viewRefs)
	}
}

// cancelAfter is a context that reports cancellation from its n+1-th
// Err call on: the READ loop asks once per candidate fragment, so it
// cancels a query deterministically between two fragments.
type cancelAfter struct {
	context.Context
	calls atomic.Int32
	n     int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestQueryCancelBetweenFragments: cancellation after some fragments
// were read fetches no further fragment and returns the context's
// error with the view released.
func TestQueryCancelBetweenFragments(t *testing.T) {
	st, probe := fragmentedStore(t, core.GCSR, 8)
	region := tensor.Region{Start: []uint64{0, 0, 0}, Size: []uint64{16, 16, 16}}
	for _, req := range []QueryRequest{
		{Probe: probe},
		{Region: &region, Strategy: StrategyScan},
		{Region: &region, Strategy: StrategyAuto},
	} {
		req.AsOf = AsOfLatest
		ctx := &cancelAfter{Context: context.Background(), n: 3}
		if _, _, err := st.Query(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %v: err = %v, want context.Canceled", req.Strategy, err)
		}
		if got := ctx.calls.Load(); got != 4 {
			t.Fatalf("strategy %v: loop asked the context %d times, want 4", req.Strategy, got)
		}
		if only(st).viewRefs != 0 {
			t.Fatalf("%d views still pinned after a canceled query", only(st).viewRefs)
		}
	}
	if res, _, err := readProbe(st, probe); err != nil || res.Coords.Len() == 0 {
		t.Fatalf("store unusable after canceled queries: %v", err)
	}
}
