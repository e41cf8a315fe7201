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

// The pooled side of the READ loop (QueryRequest.Workers > 1).

func TestPooledQueryMatchesSerial(t *testing.T) {
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			st, probe := fragmentedStore(t, kind, 6)
			serial, srep, err := readProbe(st, probe)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 16} {
				par, prep, err := readPooled(st, probe, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !par.Coords.Equal(serial.Coords) {
					t.Fatalf("workers=%d: %d cells vs %d serial",
						workers, par.Coords.Len(), serial.Coords.Len())
				}
				for i := range serial.Values {
					if par.Values[i] != serial.Values[i] {
						t.Fatalf("workers=%d: value %d differs", workers, i)
					}
				}
				if prep.Fragments != srep.Fragments || prep.Found != srep.Found {
					t.Fatalf("workers=%d: report %+v vs %+v", workers, prep, srep)
				}
			}
		})
	}
}

func TestPooledQuerySingleWorkerRunsInline(t *testing.T) {
	st, probe := fragmentedStore(t, core.Linear, 3)
	res, rep, err := readPooled(st, probe, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() == 0 || rep.Fragments != 3 {
		t.Fatalf("one-worker read: %d cells, %d fragments", res.Coords.Len(), rep.Fragments)
	}
}

func TestPooledQueryEmptyProbe(t *testing.T) {
	st, _ := fragmentedStore(t, core.CSF, 2)
	res, _, err := readPooled(st, tensor.NewCoords(3, 0), 4)
	if err != nil || res.Coords.Len() != 0 {
		t.Fatalf("empty probe: %v, %v", res, err)
	}
}

// TestPooledQueryPropagatesErrors: a fetch failing on one worker fails
// the query, whatever the strategy, and leaves no view pinned.
func TestPooledQueryPropagatesErrors(t *testing.T) {
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
		req.AsOf, req.Workers = AsOfLatest, 4
		if _, _, err := st.Query(context.Background(), req); err == nil {
			t.Fatalf("strategy %v: injected fragment failure not propagated", req.Strategy)
		}
	}
	if st.viewRefs != 0 {
		t.Fatalf("%d views still pinned after failed queries", st.viewRefs)
	}
}

// cancelAfter is a context that reports cancellation from its n+1-th
// Err call on: the READ loop asks once per candidate fragment, so it
// cancels a query deterministically in mid-pool.
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

// TestPooledQueryCancelMidPool: cancellation after some fragments were
// handed to workers waits for those, hands out no more, and returns the
// context's error with the view released.
func TestPooledQueryCancelMidPool(t *testing.T) {
	st, probe := fragmentedStore(t, core.GCSR, 8)
	region := tensor.Region{Start: []uint64{0, 0, 0}, Size: []uint64{16, 16, 16}}
	for _, req := range []QueryRequest{
		{Probe: probe},
		{Region: &region, Strategy: StrategyScan},
		{Region: &region, Strategy: StrategyAuto},
	} {
		for _, workers := range []int{1, 4} {
			req.AsOf, req.Workers = AsOfLatest, workers
			ctx := &cancelAfter{Context: context.Background(), n: 3}
			if _, _, err := st.Query(ctx, req); !errors.Is(err, context.Canceled) {
				t.Fatalf("strategy %v workers %d: err = %v, want context.Canceled", req.Strategy, workers, err)
			}
			if got := ctx.calls.Load(); got != 4 {
				t.Fatalf("strategy %v workers %d: loop asked the context %d times, want 4", req.Strategy, workers, got)
			}
			if st.viewRefs != 0 {
				t.Fatalf("%d views still pinned after a canceled query", st.viewRefs)
			}
		}
	}
	if res, _, err := readPooled(st, probe, 4); err != nil || res.Coords.Len() == 0 {
		t.Fatalf("store unusable after canceled queries: %v", err)
	}
}

func TestPooledQueryValidation(t *testing.T) {
	st, _ := fragmentedStore(t, core.COO, 1)
	bad := tensor.NewCoords(2, 0)
	bad.Append(1, 1)
	if _, _, err := readPooled(st, bad, 4); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}
