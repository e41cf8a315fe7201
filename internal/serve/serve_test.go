package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all" // register every organization
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// startServer serves backend on a loopback listener and returns a
// connected client.
func startServer(t *testing.T, backend serve.Backend, cfg serve.Config) (*serve.Server, *serve.Client, string) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	srv := serve.NewServer(backend, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c, ln.Addr().String()
}

func mustCoords(t *testing.T, dims int, flat ...uint64) *tensor.Coords {
	t.Helper()
	c, err := tensor.FromFlat(dims, flat)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// batchWriter is the network's one write op, as Client and Router
// spell it.
type batchWriter interface {
	WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error)
}

// writeOne sends one fragment's points as a one-batch WriteBatch.
func writeOne(ctx context.Context, w batchWriter, coords *tensor.Coords, values []float64) ([]*store.WriteReport, error) {
	return w.WriteBatch(ctx, []store.Batch{{Coords: coords, Values: values}}, 1)
}

func TestServerRoundTrip(t *testing.T) {
	shape := tensor.Shape{20, 20}
	reg := obs.New()
	st, err := store.Create(fsim.NewPerlmutterSim(), "s", core.CSF, shape, store.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := startServer(t, serve.StoreBackend(st), serve.Config{Obs: reg})
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	coords := mustCoords(t, 2, 1, 1, 2, 3, 5, 5, 9, 9)
	reps, err := writeOne(ctx, c, coords, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if len(reps) != 1 || reps[0].NNZ != 4 {
		t.Fatalf("write reports = %+v, want one with NNZ 4", reps)
	}

	// Probe query through the unified request surface.
	res, rrep, err := c.Query(ctx, store.QueryRequest{
		Probe: mustCoords(t, 2, 2, 3, 7, 7), AsOf: store.AsOfLatest,
	})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Coords.Len() != 1 || res.Values[0] != 2 {
		t.Fatalf("probe result: %v %v", res.Coords.Flat(), res.Values)
	}
	if rrep == nil || rrep.Probed == 0 {
		t.Fatalf("report not transported: %+v", rrep)
	}

	// Region query, then delete, then region again.
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{20, 20}}
	res, _, err = c.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest})
	if err != nil {
		t.Fatalf("region query: %v", err)
	}
	if res.Coords.Len() != 4 {
		t.Fatalf("region found %d points, want 4", res.Coords.Len())
	}
	if _, err := c.DeleteRegion(ctx, tensor.Region{Start: []uint64{5, 5}, Size: []uint64{1, 1}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	res, _, err = c.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest, Strategy: store.StrategyScan})
	if err != nil {
		t.Fatalf("scan query: %v", err)
	}
	if res.Coords.Len() != 3 {
		t.Fatalf("after delete found %d points, want 3", res.Coords.Len())
	}

	// AlignPoints lays a remote probe result out along its probe.
	points := mustCoords(t, 2, 9, 9, 0, 0, 1, 1)
	res, _, err = c.Query(ctx, store.QueryRequest{Probe: points, AsOf: store.AsOfLatest})
	if err != nil {
		t.Fatalf("read points: %v", err)
	}
	vals, found := store.AlignPoints(points, res)
	if !reflect.DeepEqual(vals, []float64{4, 0, 1}) || !reflect.DeepEqual(found, []bool{true, false, true}) {
		t.Fatalf("points: %v %v", vals, found)
	}

	// Kernel push-down over the wire.
	kres, err := c.Kernel(ctx, store.KernelRequest{Op: store.KernelSumAll})
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if kres.Values[0] != 1+2+4 {
		t.Fatalf("sum = %v, want 7", kres.Values[0])
	}

	// WriteBatch streams the batched ingest.
	reps, err = c.WriteBatch(ctx, []store.Batch{
		{Coords: mustCoords(t, 2, 10, 10), Values: []float64{5}},
		{Coords: mustCoords(t, 2, 11, 11), Values: []float64{6}},
	}, 2)
	if err != nil {
		t.Fatalf("write batch: %v", err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d batch reports, want 2", len(reps))
	}

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Kind != core.CSF || !info.Shape.Equal(shape) || info.Fragments == 0 {
		t.Fatalf("info: %+v", info)
	}

	snap, err := c.ObsSnapshot(ctx)
	if err != nil {
		t.Fatalf("obs: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("obs snapshot empty")
	}
}

// TestServerTypedErrors exercises the lossless error model end to end:
// the client-side errors.Is observes the same sentinels the store
// raised.
func TestServerTypedErrors(t *testing.T) {
	st, err := store.Create(fsim.NewPerlmutterSim(), "s", core.COO, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := startServer(t, serve.StoreBackend(st), serve.Config{})
	ctx := context.Background()

	_, _, err = c.Query(ctx, store.QueryRequest{
		Probe: mustCoords(t, 3, 1, 1, 1), AsOf: store.AsOfLatest,
	})
	if !errors.Is(err, store.ErrShapeMismatch) {
		t.Fatalf("dims error = %v, want ErrShapeMismatch", err)
	}

	_, _, err = c.Query(ctx, store.QueryRequest{AsOf: store.AsOfLatest})
	if !errors.Is(err, store.ErrBadRequest) {
		t.Fatalf("no-target error = %v, want ErrBadRequest", err)
	}

	_, _, err = c.Query(ctx, store.QueryRequest{
		Probe: mustCoords(t, 2, 1, 1), AsOf: 99,
	})
	if !errors.Is(err, store.ErrBadRequest) {
		t.Fatalf("as-of error = %v, want ErrBadRequest", err)
	}
}

// TestWriteSideTypedErrors: validation failures of the mutating ops
// keep their sentinel and code from a chunked store, through the
// server, to the client — as the read side's always have. A router
// rejects a malformed batch list before any shard sees its slice: one
// bad batch among good ones leaves 0 fragments on every shard.
func TestWriteSideTypedErrors(t *testing.T) {
	shape, tile := tensor.Shape{16, 16}, tensor.Shape{8, 8}
	c, err := store.NewChunked(fsim.NewPerlmutterSim(), "c", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	_, cl, _ := startServer(t, serve.ChunkedBackend(c), serve.Config{})
	shards := make([]*store.Chunked, 3)
	addrs := make([]string, len(shards))
	for i := range shards {
		if shards[i], err = store.NewChunked(fsim.NewPerlmutterSim(), "shard", core.CSF, shape, tile); err != nil {
			t.Fatal(err)
		}
		_, _, addrs[i] = startServer(t, serve.ChunkedBackend(shards[i]), serve.Config{})
	}
	router, err := serve.NewRouter(addrs, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	ctx := context.Background()

	_, berr := writeOne(ctx, cl, mustCoords(t, 3, 1, 1, 1), []float64{1})
	_, derr := cl.DeleteRegion(ctx, tensor.Region{Start: []uint64{0}, Size: []uint64{4}})
	_, oerr := cl.DeleteRegion(ctx, tensor.Region{Start: []uint64{8, 8}, Size: []uint64{9, 1}})
	cases := map[string]error{
		"3-dim batch": berr, "1-dim delete": derr, "delete past the shape": oerr,
	}
	// Every tile gets a point, so every shard that owns a tile would
	// commit its slice of the good batch if validation came too late.
	good := store.Batch{Coords: mustCoords(t, 2, 1, 1, 1, 9, 9, 1, 9, 9), Values: []float64{1, 2, 3, 4}}
	for name, bad := range map[string]store.Batch{
		"router short values":       {Coords: mustCoords(t, 2, 1, 1, 9, 9), Values: []float64{1}},
		"router nil coords":         {Values: []float64{1}},
		"router 3-dim batch":        {Coords: mustCoords(t, 3, 1, 1, 1), Values: []float64{1}},
		"router out-of-shape point": {Coords: mustCoords(t, 2, 1, 1, 16, 3), Values: []float64{1, 2}},
	} {
		_, cases[name] = router.WriteBatch(ctx, []store.Batch{good, bad}, 1)
		// One validator: the router's words are the store's.
		if want := store.ValidateBatches([]store.Batch{good, bad}, shape); cases[name] == nil || cases[name].Error() != want.Error() {
			t.Errorf("%s: router says %v, store.ValidateBatches %v", name, cases[name], want)
		}
	}
	for name, err := range cases {
		if !errors.Is(err, store.ErrShapeMismatch) || wire.CodeOf(err) != wire.CodeShapeMismatch {
			t.Errorf("%s: err = %v (code %d), want ErrShapeMismatch", name, err, wire.CodeOf(err))
		}
	}
	for i, sh := range append(shards, c) {
		if sh.Fragments() != 0 {
			t.Errorf("store %d: rejected mutations left %d fragments", i, sh.Fragments())
		}
	}
}

// TestRetiredOpcode: a frame of a type the protocol no longer assigns
// (0x02, the former read-points op; 0x03, the former one-fragment
// write) is answered with a typed error and counted, and the connection
// keeps serving.
func TestRetiredOpcode(t *testing.T) {
	st, err := store.Create(fsim.NewPerlmutterSim(), "s", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	_, _, addr := startServer(t, serve.StoreBackend(st), serve.Config{Obs: reg})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) // a hang fails the test, not the suite

	for n, op := range []uint8{0x02, 0x03} {
		id := uint64(7 + n)
		if err := wire.WriteFrame(conn, op, id, wire.EncodeDeadline(0)); err != nil {
			t.Fatal(err)
		}
		typ, got, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("no reply to the retired opcode %#x: %v", op, err)
		}
		if typ != wire.MsgErr || got != id {
			t.Fatalf("opcode %#x: reply type %#x id %d, want MsgErr id %d", op, typ, got, id)
		}
		if rerr := wire.DecodeError(payload); !errors.Is(rerr, store.ErrBadRequest) || wire.CodeOf(rerr) != wire.CodeBadRequest {
			t.Fatalf("opcode %#x: reply error = %v, want CodeBadRequest", op, rerr)
		}
		var counted int64
		for name, v := range reg.Snapshot().Counters {
			if f, _ := obs.ParseName(name); f == "serve.request.errors" {
				counted += v
			}
		}
		if counted != int64(n+1) {
			t.Fatalf("serve.request.errors = %d after opcode %#x, want %d", counted, op, n+1)
		}
	}

	if err := wire.WriteFrame(conn, wire.MsgPing, 9, wire.EncodeDeadline(0)); err != nil {
		t.Fatal(err)
	}
	if typ, id, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgOK || id != 9 {
		t.Fatalf("ping after the retired opcode: type %#x id %d err %v", typ, id, err)
	}
}

// TestConcurrentClients hammers one server from many goroutines over
// both a shared pipelined client and per-goroutine connections; run
// with -race this is the serving layer's concurrency check.
func TestConcurrentClients(t *testing.T) {
	shape := tensor.Shape{64, 64}
	st, err := store.Create(fsim.NewPerlmutterSim(), "s", core.COOSorted, shape)
	if err != nil {
		t.Fatal(err)
	}
	_, shared, addr := startServer(t, serve.StoreBackend(st), serve.Config{})
	ctx := context.Background()

	const goroutines = 8
	const opsEach = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own, err := serve.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer own.Close()
			c := shared
			if g%2 == 0 {
				c = own
			}
			for i := 0; i < opsEach; i++ {
				row := uint64(g*opsEach+i) % 64
				coords := mustCoords(t, 2, row, uint64(g))
				if _, err := writeOne(ctx, c, coords, []float64{float64(g + i)}); err != nil {
					errCh <- fmt.Errorf("g%d write: %w", g, err)
					return
				}
				region := tensor.Region{Start: []uint64{0, uint64(g)}, Size: []uint64{64, 1}}
				if _, _, err := c.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest}); err != nil {
					errCh <- fmt.Errorf("g%d query: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// slowFS injects real latency into fragment opens so a deadline can
// expire mid-read.
type slowFS struct {
	fsim.FS
	delay time.Duration
	opens atomic.Int64
}

func (s *slowFS) Open(name string) (fsim.File, error) {
	s.opens.Add(1)
	time.Sleep(s.delay)
	return s.FS.Open(name)
}

// TestDeadlineCancelsRegionRead is the acceptance-criteria deadline
// test: a client deadline expiring mid-region-read surfaces
// context.DeadlineExceeded AND stops the server-side fragment loop
// early — the store does not grind through every fragment for a
// request nobody is waiting on.
func TestDeadlineCancelsRegionRead(t *testing.T) {
	shape := tensor.Shape{40, 40}
	fs := &slowFS{FS: fsim.NewPerlmutterSim(), delay: 10 * time.Millisecond}
	// Cache off: every fragment probe must open its file, hitting the
	// injected latency.
	st, err := store.Create(fs, "s", core.COO, shape, store.WithReaderCache(0))
	if err != nil {
		t.Fatal(err)
	}
	const fragments = 30
	for i := 0; i < fragments; i++ {
		coords := mustCoords(t, 2, uint64(i), uint64(i))
		if _, err := st.Write(coords, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, c, _ := startServer(t, serve.StoreBackend(st), serve.Config{})

	fs.opens.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 35*time.Millisecond)
	defer cancel()
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{40, 40}}
	_, _, err = c.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// Give the server a beat to finish the fragment it was on, then
	// confirm the loop stopped: far fewer opens than fragments.
	time.Sleep(50 * time.Millisecond)
	if n := fs.opens.Load(); n >= fragments {
		t.Fatalf("server opened all %d fragments despite expired deadline", n)
	}
}

// blockBackend parks Query calls until released, making the in-flight
// window observable.
type blockBackend struct {
	serve.Backend
	entered chan struct{}
	release chan struct{}
}

func (b *blockBackend) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.Query(ctx, req)
}

// TestBackpressure verifies the bounded in-flight window: with
// MaxInFlight=1 and one request parked in the backend, the next
// request is rejected immediately with the typed overload error
// instead of queueing.
func TestBackpressure(t *testing.T) {
	st, err := store.Create(fsim.NewPerlmutterSim(), "s", core.COO, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(mustCoords(t, 2, 1, 1), []float64{1}); err != nil {
		t.Fatal(err)
	}
	bb := &blockBackend{
		Backend: serve.StoreBackend(st),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	_, c, _ := startServer(t, bb, serve.Config{MaxInFlight: 1})
	ctx := context.Background()
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{10, 10}}

	first := make(chan error, 1)
	go func() {
		_, _, err := c.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest})
		first <- err
	}()
	<-bb.entered // the only slot is now held

	_, _, err = c.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest})
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("second query err = %v, want ErrOverloaded", err)
	}

	close(bb.release)
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
}

// newShard boots one shard: a chunked store behind a wire server on
// loopback.
func newShard(t *testing.T, kind core.Kind, shape, tile tensor.Shape) string {
	t.Helper()
	reg := obs.New()
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
	return ln.Addr().String()
}

// TestRouterMatchesLocalChunked is the acceptance-criteria
// differential: every read served by a 3-shard router must be
// byte-identical to a single-process Chunked store given the same
// writes, across all seven storage kinds, all strategies, probes,
// deletes, and the additive kernels.
func TestRouterMatchesLocalChunked(t *testing.T) {
	shape := tensor.Shape{24, 24}
	tile := tensor.Shape{8, 8}
	kinds := append(core.PaperKinds(), core.COOSorted, core.BCOO)
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			addrs := []string{
				newShard(t, kind, shape, tile),
				newShard(t, kind, shape, tile),
				newShard(t, kind, shape, tile),
			}
			router, err := serve.NewRouter(addrs, obs.New())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { router.Close() })
			local, err := store.NewChunked(fsim.NewPerlmutterSim(), "local", kind, shape, tile)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(42))

			// Identical writes through both paths: several multi-tile
			// fragments, a batched ingest, and a region delete.
			for round := 0; round < 3; round++ {
				coords, values := randomPoints(rng, shape, 50)
				if _, err := writeOne(ctx, router, coords, values); err != nil {
					t.Fatalf("router write: %v", err)
				}
				if _, err := local.Write(coords, values); err != nil {
					t.Fatalf("local write: %v", err)
				}
			}
			var batches []store.Batch
			for b := 0; b < 3; b++ {
				coords, values := randomPoints(rng, shape, 25)
				batches = append(batches, store.Batch{Coords: coords, Values: values})
			}
			if _, err := router.WriteBatch(ctx, batches, 2); err != nil {
				t.Fatalf("router batch: %v", err)
			}
			if _, err := local.WriteBatch(batches, 2); err != nil {
				t.Fatalf("local batch: %v", err)
			}
			del := tensor.Region{Start: []uint64{6, 6}, Size: []uint64{6, 9}}
			if _, err := router.DeleteRegion(ctx, del); err != nil {
				t.Fatalf("router delete: %v", err)
			}
			if _, err := local.DeleteRegion(del); err != nil {
				t.Fatalf("local delete: %v", err)
			}

			// Region reads: every strategy, a tile-spanning window and
			// the full tensor, must match point for point — and so must
			// the regions only the tiling's clamp makes sense of: an
			// extent that overflows uint64, one reaching past the shape,
			// an empty one.
			regions := []tensor.Region{
				{Start: []uint64{0, 0}, Size: []uint64{24, 24}},
				{Start: []uint64{5, 3}, Size: []uint64{13, 17}},
				{Start: []uint64{8, 8}, Size: []uint64{8, 8}},
				{Start: []uint64{9, 9}, Size: []uint64{math.MaxUint64, math.MaxUint64}},
				{Start: []uint64{0, 0}, Size: []uint64{100, 100}},
				{Start: []uint64{3, 3}, Size: []uint64{0, 5}},
			}
			for _, region := range regions {
				for _, strat := range []store.Strategy{store.StrategyDefault, store.StrategyScan, store.StrategyAuto} {
					region := region
					req := store.QueryRequest{Region: &region, AsOf: store.AsOfLatest, Strategy: strat}
					want, _, err := local.Query(ctx, req)
					if err != nil {
						t.Fatalf("local query %v/%v: %v", region, strat, err)
					}
					got, _, err := router.Query(ctx, req)
					if err != nil {
						t.Fatalf("router query %v/%v: %v", region, strat, err)
					}
					if !reflect.DeepEqual(got.Coords.Flat(), want.Coords.Flat()) ||
						!reflect.DeepEqual(got.Values, want.Values) {
						t.Fatalf("%v/%v: router and local disagree:\n got %v %v\nwant %v %v",
							region, strat, got.Coords.Flat(), got.Values, want.Coords.Flat(), want.Values)
					}
				}
			}

			// Probe reads preserve alignment and agree with local state.
			probe, _ := randomPoints(rng, shape, 30)
			wantRes, _, err := local.Query(ctx, store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest})
			if err != nil {
				t.Fatal(err)
			}
			gotRes, _, err := router.Query(ctx, store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes.Coords.Flat(), wantRes.Coords.Flat()) ||
				!reflect.DeepEqual(gotRes.Values, wantRes.Values) {
				t.Fatalf("probe disagreement: got %v want %v", gotRes.Values, wantRes.Values)
			}

			// AlignPoints is a function of (probe, result) alone: the
			// same layout from the router's result as from the local
			// one, over a probe with repeats, points outside the shape,
			// and cells that are absent.
			messy := tensor.NewCoords(2, 0)
			messy.AppendFlat(probe.Flat())
			messy.AppendFlat(probe.At(0))
			messy.Append(24, 0)
			messy.Append(math.MaxUint64, math.MaxUint64)
			messy.AppendFlat(probe.At(0))
			checkAligned(t, ctx, messy, router, local)
			inDeleted := mustCoords(t, 2, 7, 7, 8, 9) // both under the tombstone: an empty result
			if vals, found := checkAligned(t, ctx, inDeleted, router, local); found[0] || found[1] || vals[0] != 0 {
				t.Fatalf("deleted cells aligned as %v %v", vals, found)
			}

			// Additive kernels: exact for counts, tolerance for sums
			// (per-shard partials associate differently).
			kreqs := []store.KernelRequest{
				{Op: store.KernelSumAll},
				{Op: store.KernelLiveNNZ},
				{Op: store.KernelNNZPerSlice, Mode: 0},
			}
			for i := range regions {
				kreqs = append(kreqs, store.KernelRequest{Op: store.KernelSumRegion, Region: &regions[i]})
			}
			for _, kreq := range kreqs {
				wantK, err := local.Kernel(ctx, kreq)
				if err != nil {
					t.Fatalf("local kernel %v: %v", kreq.Op, err)
				}
				gotK, err := router.Kernel(ctx, kreq)
				if err != nil {
					t.Fatalf("router kernel %v: %v", kreq.Op, err)
				}
				if len(gotK.Values) != len(wantK.Values) {
					t.Fatalf("kernel %v: %d values, want %d", kreq.Op, len(gotK.Values), len(wantK.Values))
				}
				for i, want := range wantK.Values {
					if math.Abs(gotK.Values[i]-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("kernel %v[%d]: router %v local %v", kreq.Op, i, gotK.Values[i], want)
					}
				}
			}
			// SpMV needs cross-tile accumulation and must be rejected.
			if _, err := router.Kernel(ctx, store.KernelRequest{Op: store.KernelSpMV, Vec: make([]float64, 24)}); !errors.Is(err, store.ErrBadRequest) {
				t.Fatalf("spmv on router = %v, want ErrBadRequest", err)
			}

			// Deletions over the same regions: the same verdict from both
			// (a region leaving the shape or empty is ErrShapeMismatch),
			// and the same cells left afterwards.
			for _, del := range regions[3:] {
				_, lerr := local.DeleteRegion(del)
				_, rerr := router.DeleteRegion(ctx, del)
				if (lerr == nil) != (rerr == nil) || errors.Is(lerr, store.ErrShapeMismatch) != errors.Is(rerr, store.ErrShapeMismatch) {
					t.Fatalf("delete %v: router %v, local %v", del, rerr, lerr)
				}
				req := store.QueryRequest{Region: &regions[0], AsOf: store.AsOfLatest, Strategy: store.StrategyScan}
				want, _, err := local.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := router.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Coords.Flat(), want.Coords.Flat()) || !reflect.DeepEqual(got.Values, want.Values) {
					t.Fatalf("after delete %v: router holds %d cells, local %d", del, got.Coords.Len(), want.Coords.Len())
				}
			}
		})
	}
}

// TestWriteBatchOneReportPerBatch: the network's write op answers one
// report per batch, in request order, whatever the batches' spread over
// tiles and shards — a batch spanning several tiles folds its fragments
// into one report, an empty batch in the middle keeps a zero report.
func TestWriteBatchOneReportPerBatch(t *testing.T) {
	shape, tile := tensor.Shape{24, 24}, tensor.Shape{8, 8}
	batches := []store.Batch{
		{Coords: mustCoords(t, 2, 1, 1, 9, 9, 17, 17), Values: []float64{1, 2, 3}}, // three tiles
		{Coords: mustCoords(t, 2, 2, 2), Values: []float64{4}},
		{Coords: tensor.NewCoords(2, 0)},                                                                 // empty
		{Coords: mustCoords(t, 2, 3, 3, 3, 20, 20, 3, 20, 20, 12, 12), Values: []float64{5, 6, 7, 8, 9}}, // five tiles
	}
	for _, nshards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", nshards), func(t *testing.T) {
			addrs := make([]string, nshards)
			for i := range addrs {
				addrs[i] = newShard(t, core.CSF, shape, tile)
			}
			router, err := serve.NewRouter(addrs, obs.New())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { router.Close() })
			reps, err := router.WriteBatch(context.Background(), batches, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(reps) != len(batches) {
				t.Fatalf("%d reports for %d batches", len(reps), len(batches))
			}
			for i, rep := range reps {
				if rep.NNZ != batches[i].Coords.Len() {
					t.Errorf("report %d credits %d points, batch holds %d", i, rep.NNZ, batches[i].Coords.Len())
				}
				if (rep.Bytes > 0) != (rep.NNZ > 0) {
					t.Errorf("report %d: %d bytes for %d points", i, rep.Bytes, rep.NNZ)
				}
			}
		})
	}
}

// TestConcurrentHammerChunkedBackend is the tile-creation race as a
// shard sees it: clients write into never-seen tiles (the same tiles,
// disjoint cells) while others read regions, probe, sum and delete a
// band no writer touches, all through one served ChunkedBackend. The
// final cells must be exactly the writers'.
func TestConcurrentHammerChunkedBackend(t *testing.T) {
	shape, tile := tensor.Shape{64, 64}, tensor.Shape{8, 8}
	const rounds, writers = 14, 2
	c, err := store.NewChunked(fsim.NewPerlmutterSim(), "hammer", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	_, _, addr := startServer(t, serve.ChunkedBackend(c), serve.Config{})
	dial := func() *serve.Client {
		cl, err := serve.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	// Round r of writer w puts one point in each of tile row r/2's eight
	// tiles; rows 56.. are the band only the deleter touches.
	batchOf := func(w, r int) store.Batch {
		b := store.Batch{Coords: tensor.NewCoords(2, 8)}
		for tj := 0; tj < 8; tj++ {
			b.Coords.Append(uint64(r/2*8+r%2*4+w), uint64(tj*8+w))
			b.Values = append(b.Values, float64(100*r+10*tj+w+1))
		}
		return b
	}
	band := tensor.Region{Start: []uint64{56, 0}, Size: []uint64{8, 64}}
	ctx := context.Background()
	if _, err := writeOne(ctx, dial(), mustCoords(t, 2, 60, 1, 60, 33), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int, cl *serve.Client) {
			defer writing.Done()
			for r := 0; r < rounds; r++ {
				if _, err := cl.WriteBatch(ctx, []store.Batch{batchOf(w, r)}, 1); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w, dial())
	}
	window := tensor.Region{Start: []uint64{4, 4}, Size: []uint64{40, 40}}
	for name, op := range map[string]func(cl *serve.Client) error{
		"region": func(cl *serve.Client) error {
			_, _, err := cl.Query(ctx, store.QueryRequest{Region: &window, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto})
			return err
		},
		"probe": func(cl *serve.Client) error {
			_, _, err := cl.Query(ctx, store.QueryRequest{Probe: batchOf(0, 3).Coords, AsOf: store.AsOfLatest})
			return err
		},
		"sumall": func(cl *serve.Client) error {
			_, err := cl.Kernel(ctx, store.KernelRequest{Op: store.KernelSumAll})
			return err
		},
		"delete": func(cl *serve.Client) error { _, err := cl.DeleteRegion(ctx, band); return err },
	} {
		reading.Add(1)
		go func(name string, op func(*serve.Client) error, cl *serve.Client) {
			defer reading.Done()
			for {
				if err := op(cl); err != nil {
					t.Errorf("%s beside tile creation: %v", name, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(name, op, dial())
	}
	writing.Wait()
	close(done)
	reading.Wait()
	if t.Failed() {
		return
	}
	cl := dial()
	if _, err := cl.DeleteRegion(ctx, band); err != nil {
		t.Fatal(err)
	}
	want := map[[2]uint64]float64{}
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			b := batchOf(w, r)
			for i, v := range b.Values {
				want[[2]uint64(b.Coords.At(i))] = v
			}
		}
	}
	whole := tensor.Region{Start: []uint64{0, 0}, Size: shape}
	res, _, err := cl.Query(ctx, store.QueryRequest{Region: &whole, AsOf: store.AsOfLatest, Strategy: store.StrategyScan})
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]uint64]float64{}
	for i, v := range res.Values {
		got[[2]uint64(res.Coords.At(i))] = v
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served store holds %d cells, the writers wrote %d (or values differ)", len(got), len(want))
	}
	if c.Tiles() != 7*8+2 { // seven tile rows of writers, two band tiles
		t.Fatalf("%d tiles, want 58", c.Tiles())
	}
}

// checkAligned queries probe through the router and the local store
// and lays both results out with AlignPoints: the layouts must agree
// with each other and, point by point, with the local result.
func checkAligned(t *testing.T, ctx context.Context, probe *tensor.Coords, router *serve.Router, local *store.Chunked) ([]float64, []bool) {
	t.Helper()
	req := store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest}
	want, _, err := local.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := router.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	vals, found := store.AlignPoints(probe, got)
	wantVals, wantFound := store.AlignPoints(probe, want)
	if !reflect.DeepEqual(vals, wantVals) || !reflect.DeepEqual(found, wantFound) {
		t.Fatalf("aligned router result %v %v, local %v %v", vals, found, wantVals, wantFound)
	}
	if len(vals) != probe.Len() || len(found) != probe.Len() {
		t.Fatalf("aligned %d values, %d marks for %d probe points", len(vals), len(found), probe.Len())
	}
	stored := map[string]float64{}
	for i := 0; i < want.Coords.Len(); i++ {
		stored[fmt.Sprint(want.Coords.At(i))] = want.Values[i]
	}
	nfound := 0
	for i := 0; i < probe.Len(); i++ {
		v, ok := stored[fmt.Sprint(probe.At(i))]
		if found[i] != ok || vals[i] != v {
			t.Fatalf("probe point %d %v aligned as (%v, %v), result holds (%v, %v)", i, probe.At(i), vals[i], found[i], v, ok)
		}
		if ok {
			nfound++
		}
	}
	if nfound < want.Coords.Len() {
		t.Fatalf("aligned %d found points, result has %d", nfound, want.Coords.Len())
	}
	return vals, found
}

// TestRouterMatchesLocalChunked4D repeats the differential on a 4-D
// shape whose linear address overflows uint64 — only the tiles'
// addresses fit — where results must still merge in coordinate order
// and AlignPoints must still key them.
func TestRouterMatchesLocalChunked4D(t *testing.T) {
	const m = 1 << 20
	shape := tensor.Shape{m, m, m, m} // 2^80 cells
	tile := tensor.Shape{1 << 10, 1 << 10, 1 << 10, 1 << 10}
	if _, ok := shape.Volume(); ok {
		t.Fatal("shape volume fits uint64; the test needs one that does not")
	}
	addrs := []string{newShard(t, core.CSF, shape, tile), newShard(t, core.CSF, shape, tile)}
	router, err := serve.NewRouter(addrs, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	local, err := store.NewChunked(fsim.NewPerlmutterSim(), "local", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Points spread over far-apart tiles, written in no particular order.
	coords := mustCoords(t, 4,
		m-1, m-1, m-1, m-1,
		0, 0, 0, 1,
		m/2, 3, m-2, 1<<10,
		0, 0, 0, 0,
		5, m-1, 0, 7,
		m/2, 3, m-2, 1<<10+1,
	)
	values := []float64{1, 2, 3, 4, 5, 6}
	if _, err := writeOne(ctx, router, coords, values); err != nil {
		t.Fatal(err)
	}
	if _, err := local.Write(coords, values); err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewCoords(4, 0)
	probe.AppendFlat(coords.Flat())
	probe.Append(1, 1, 1, 1)       // absent
	probe.AppendFlat(coords.At(2)) // repeated
	probe.Append(m, 0, 0, 0)       // outside the shape
	vals, found := checkAligned(t, ctx, probe, router, local)
	if !reflect.DeepEqual(vals, []float64{1, 2, 3, 4, 5, 6, 0, 3, 0}) ||
		!reflect.DeepEqual(found, []bool{true, true, true, true, true, true, false, true, false}) {
		t.Fatalf("aligned %v %v", vals, found)
	}
	got, _, err := router.Query(ctx, store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{4, 2, 5, 3, 6, 1}; !reflect.DeepEqual(got.Values, want) {
		t.Fatalf("merged order %v, want %v (row-major by coordinate tuple)", got.Values, want)
	}
}

// randomPoints draws n distinct coordinates in shape with values.
func randomPoints(rng *rand.Rand, shape tensor.Shape, n int) (*tensor.Coords, []float64) {
	seen := map[[2]uint64]bool{}
	coords := tensor.NewCoords(len(shape), n)
	var values []float64
	for len(values) < n {
		p := [2]uint64{rng.Uint64() % shape[0], rng.Uint64() % shape[1]}
		if seen[p] {
			continue
		}
		seen[p] = true
		coords.Append(p[0], p[1])
		values = append(values, float64(rng.Intn(1000))/8)
	}
	return coords, values
}

// TestRouterObsAggregation checks the fleet-wide telemetry path: after
// a workload, a router obs refresh absorbs shard store counters into
// the router registry, and a second refresh does not double-count.
func TestRouterObsAggregation(t *testing.T) {
	shape := tensor.Shape{16, 16}
	tile := tensor.Shape{8, 8}
	addrs := []string{
		newShard(t, core.COO, shape, tile),
		newShard(t, core.COO, shape, tile),
	}
	reg := obs.New()
	router, err := serve.NewRouter(addrs, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	ctx := context.Background()

	rng := rand.New(rand.NewSource(7))
	coords, values := randomPoints(rng, shape, 40)
	if _, err := writeOne(ctx, router, coords, values); err != nil {
		t.Fatal(err)
	}
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{16, 16}}
	if _, _, err := router.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest}); err != nil {
		t.Fatal(err)
	}

	if err := router.RefreshObs(ctx); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	total := func(s *obs.Snapshot, family string) int64 {
		var sum int64
		for name, v := range s.Counters {
			if f, _ := obs.ParseName(name); f == family {
				sum += v
			}
		}
		return sum
	}
	reads := total(snap, "store.read.count")
	if reads == 0 {
		t.Fatalf("no shard read counters absorbed: %v", snap.Counters)
	}
	// Idle refresh: deltas are empty, counters must not grow.
	if err := router.RefreshObs(ctx); err != nil {
		t.Fatal(err)
	}
	if again := total(reg.Snapshot(), "store.read.count"); again != reads {
		t.Fatalf("idle refresh moved counters: %d -> %d", reads, again)
	}
}
