package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// tracedShard boots one wire server over a fresh chunked store and
// returns its address plus the registry its spans land in.
func tracedShard(t *testing.T, kind core.Kind, shape, tile tensor.Shape) (string, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	reg.SetProc("shard")
	c, err := store.NewChunked(fsim.NewPerlmutterSim(), "shard", kind, shape, tile, store.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.ChunkedBackend(c), serve.Config{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), reg
}

// TestTracedQueryByteIdentical is the differential satellite: for every
// storage kind, a query issued under a sampled trace (with the slow-log
// set to log everything) must return exactly the bytes an untraced
// query returns — observation must never change an answer.
func TestTracedQueryByteIdentical(t *testing.T) {
	shape := tensor.Shape{16, 16}
	for _, kind := range append(core.PaperKinds(), core.COOSorted, core.BCOO) {
		t.Run(kind.String(), func(t *testing.T) {
			reg := obs.New()
			reg.SlowLog().SetThreshold(0) // log every query
			st, err := store.Create(fsim.NewPerlmutterSim(), "s", kind, shape, store.WithObs(reg))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for round := 0; round < 3; round++ {
				coords, values := randomPoints(rng, shape, 30)
				if _, err := st.Write(coords, values); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st.DeleteRegion(tensor.Region{Start: []uint64{4, 4}, Size: []uint64{5, 6}}); err != nil {
				t.Fatal(err)
			}

			plain := context.Background()
			traced := obs.ContextWithTrace(plain, obs.NewTrace(true))
			region := tensor.Region{Start: []uint64{2, 1}, Size: []uint64{11, 13}}
			reqs := []store.QueryRequest{
				{Region: &region, AsOf: store.AsOfLatest},
				{Region: &region, AsOf: store.AsOfLatest, Strategy: store.StrategyScan},
				{Region: &region, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto},
				{Probe: region.Coords(), AsOf: store.AsOfLatest},
				{Probe: region.Coords(), AsOf: store.AsOfLatest, Workers: 3},
			}
			for i, req := range reqs {
				want, _, err := st.Query(plain, req)
				if err != nil {
					t.Fatalf("req %d untraced: %v", i, err)
				}
				got, _, err := st.Query(traced, req)
				if err != nil {
					t.Fatalf("req %d traced: %v", i, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("req %d: traced result differs from untraced", i)
				}
			}
			if n := len(reg.Snapshot().TraceSpans); n == 0 {
				t.Fatal("no trace spans recorded for sampled queries")
			}
			if n := len(reg.SlowLog().Entries()); n < len(reqs) {
				t.Fatalf("%d slow-log entries, want at least %d", n, len(reqs))
			}

			// A kernel is a read too: its slow-log line carries what the
			// read underneath fetched, next to the push-down counts.
			kres, err := st.Kernel(traced, store.KernelRequest{Op: store.KernelSumRegion, Region: &region})
			if err != nil {
				t.Fatal(err)
			}
			entries := reg.SlowLog().Entries()
			cost := entries[len(entries)-1].Cost
			if op := entries[len(entries)-1].Op; op != "store.kernel" {
				t.Fatalf("last slow-log entry is %q, want store.kernel", op)
			}
			if cost["fragments"] != int64(kres.Report.Fragments) || cost["fragments"] == 0 ||
				cost["cache_hits"]+cost["cache_misses"] != cost["fragments"] {
				t.Fatalf("kernel cost %v: want cache_hits + cache_misses = fragments = %d", cost, kres.Report.Fragments)
			}
			if _, ok := cost["bytes_read"]; !ok {
				t.Fatalf("kernel cost %v carries no bytes_read", cost)
			}
		})
	}
}

// TestTracePropagatesThroughRouter drives the acceptance path in-process:
// one region read, client → router → 3 shards, must leave spans in every
// process's registry sharing one trace ID, with parent links forming a
// connected tree.
func TestTracePropagatesThroughRouter(t *testing.T) {
	shape := tensor.Shape{24, 24}
	tile := tensor.Shape{8, 8}
	var shardRegs []*obs.Registry
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, reg := tracedShard(t, core.CSF, shape, tile)
		addrs = append(addrs, addr)
		shardRegs = append(shardRegs, reg)
	}
	routerReg := obs.New()
	routerReg.SetProc("router")
	router, err := serve.NewRouter(addrs, routerReg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	// Front the router with its own wire server so the client hop is a
	// real RPC too — client.request spans land in the client registry.
	clientReg := obs.New()
	clientReg.SetProc("client")
	_, c, _ := startServer(t, router, serve.Config{Obs: routerReg})

	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	coords, values := randomPoints(rng, shape, 80)
	if _, err := writeOne(ctx, router, coords, values); err != nil {
		t.Fatal(err)
	}

	tc := obs.NewTrace(true)
	tctx := obs.ContextWithTrace(ctx, tc)
	region := tensor.Region{Start: make([]uint64, 2), Size: shape}
	// The wire client stamps spans into the process-global registry; use
	// the router Backend directly under a client-side span instead, so
	// the test owns every registry it asserts on.
	sp, tctx := clientReg.StartCtx(tctx, "client.request")
	if _, _, err := c.Query(tctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest}); err != nil {
		t.Fatal(err)
	}
	sp.End()

	byID := map[uint64]obs.TraceSpan{}
	procs := map[string]int{}
	for _, reg := range append([]*obs.Registry{clientReg, routerReg}, shardRegs...) {
		for _, ts := range reg.Snapshot().TraceSpans {
			if ts.TraceID() != tc.TraceID() {
				t.Fatalf("span %s in proc %s has trace %s, want %s", ts.Name, ts.Proc, ts.TraceID(), tc.TraceID())
			}
			byID[ts.SpanID] = ts
			procs[ts.Proc]++
		}
	}
	for _, want := range []string{"client", "router", "shard"} {
		if procs[want] == 0 {
			t.Fatalf("no spans from proc %q (got %v)", want, procs)
		}
	}
	// Every parent link must resolve to another captured span or to the
	// trace root the test minted.
	for _, ts := range byID {
		if ts.ParentID == tc.Span {
			continue
		}
		if _, ok := byID[ts.ParentID]; !ok {
			t.Fatalf("span %s (proc %s) has dangling parent %016x", ts.Name, ts.Proc, ts.ParentID)
		}
	}
}

// failBackend rejects every Kernel call immediately with a typed error.
type failBackend struct {
	serve.Backend
}

func (b *failBackend) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	return nil, fmt.Errorf("store: %w: injected failure", store.ErrBadRequest)
}

// stallBackend parks every Kernel call until its context is canceled.
type stallBackend struct {
	serve.Backend
}

func (b *stallBackend) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// wrapShard boots a wire server over wrap(chunked backend).
func wrapShard(t *testing.T, shape, tile tensor.Shape, wrap func(serve.Backend) serve.Backend) string {
	t.Helper()
	reg := obs.New()
	c, err := store.NewChunked(fsim.NewPerlmutterSim(), "shard", core.CSF, shape, tile, store.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(wrap(serve.ChunkedBackend(c)), serve.Config{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestScatterCancelsOnFirstError: when one shard fails a scatter-gather
// fatally, the router must cancel the outstanding sub-requests instead
// of waiting them out, and must report the root-cause error rather than
// the cancellation it induced.
func TestScatterCancelsOnFirstError(t *testing.T) {
	shape := tensor.Shape{16, 16}
	tile := tensor.Shape{8, 8}
	addrs := []string{
		wrapShard(t, shape, tile, func(b serve.Backend) serve.Backend { return &failBackend{Backend: b} }),
		wrapShard(t, shape, tile, func(b serve.Backend) serve.Backend { return &stallBackend{Backend: b} }),
	}
	router, err := serve.NewRouter(addrs, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	// KernelSumAll broadcasts to every shard unconditionally, so the
	// failing and the stalled shard are both guaranteed in the scatter
	// (region queries only reach the shards owning overlapping tiles).
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := router.Kernel(context.Background(), store.KernelRequest{Op: store.KernelSumAll})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, store.ErrBadRequest) {
			t.Fatalf("scatter error = %v, want the injected bad-request root cause", err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("scatter reported the induced cancellation, not the root cause: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scatter did not return: failing shard did not cancel the stalled one")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("scatter took %v, want prompt cancellation", elapsed)
	}

	// The caller's own cancellation must still surface as such.
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err = router.Kernel(cctx, store.KernelRequest{Op: store.KernelSumAll})
	if err == nil || !errors.Is(err, context.Canceled) && !errors.Is(err, store.ErrBadRequest) {
		t.Fatalf("canceled scatter error = %v", err)
	}
}
