package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// serveQuiet serves backend on loopback with telemetry off (the
// process-global registry, nil unless a CLI enabled it), as the
// benchmark's end-to-end runs do.
func serveQuiet(t testing.TB, backend serve.Backend) string {
	t.Helper()
	srv := serve.NewServer(backend, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func dial(t testing.TB, addr string) *serve.Client {
	t.Helper()
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// nullBackend answers every query with one canned point.
type nullBackend struct {
	serve.Backend
	res *store.Result
}

func (b *nullBackend) Query(context.Context, store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	return b.res, &store.ReadReport{}, nil
}

// probeAllocs checks that one 1-point query through c costs at most
// budget heap allocations, counted across every goroutine of the
// process: client, servers, router and stores alike.
func probeAllocs(t *testing.T, c *serve.Client, probe *tensor.Coords, budget float64) {
	t.Helper()
	ctx := context.Background()
	req := store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest}
	got := testing.AllocsPerRun(500, func() {
		if _, _, err := c.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per probe (budget %.0f)", got, budget)
	if raceEnabled {
		return
	}
	if got > budget {
		t.Errorf("%.1f allocations per probe, budget %.0f", got, budget)
	}
}

// TestNullHopAllocs: a round trip against a backend that does no work
// costs the hop alone. Both frames come from and go back to the pools,
// so what is left is the decoded request and reply (three and four
// allocations), the request's goroutine and the backend's report.
func TestNullHopAllocs(t *testing.T) {
	probe := mustCoords(t, 3, 1, 2, 3)
	c := dial(t, serveQuiet(t, &nullBackend{res: &store.Result{Coords: probe, Values: []float64{1}}}))
	probeAllocs(t, c, probe, 10)
}

// TestRoutedProbeAllocs: a 1-point probe through a served router to one
// of two warm chunked shards, both hops over loopback. The router
// forwards the probe whole to its one owner, so the two hops together
// cost twice the null hop and the shard's store does the rest.
func TestRoutedProbeAllocs(t *testing.T) {
	shape, tile := tensor.Shape{64, 64, 64}, tensor.Shape{16, 16, 16}
	var addrs []string
	for i := 0; i < 2; i++ {
		c, err := store.NewChunked(fsim.NewPerlmutterSim(), "shard", core.CSF, shape, tile)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, serveQuiet(t, serve.StoreBackend(c)))
	}
	router, err := serve.NewRouter(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	c := dial(t, serveQuiet(t, router))
	pts := tensor.NewCoords(3, 512)
	vals := make([]float64, 0, 512)
	for i := uint64(0); i < 512; i++ {
		pts.Append(i%64, (i*7)%64, (i*13)%64)
		vals = append(vals, float64(i))
	}
	if _, err := c.WriteBatch(context.Background(), []store.Batch{{Coords: pts, Values: vals}}, 1); err != nil {
		t.Fatal(err)
	}
	probeAllocs(t, c, mustCoords(t, 3, pts.At(5)...), 40)
}

// echoBackend answers a probe with its own first point after a random
// pause, so replies overtake each other and outlive their callers.
type echoBackend struct{ serve.Backend }

func (echoBackend) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	time.Sleep(time.Duration(rand.Intn(400)) * time.Microsecond)
	p := req.Probe.At(0)
	c := tensor.NewCoords(len(p), 1)
	c.Append(p...)
	return &store.Result{Coords: c, Values: []float64{float64(p[0])}}, &store.ReadReport{}, nil
}

// TestAbandonedRepliesNeverCrossCalls: reply channels and payload
// buffers are recycled, and callers give up on their deadlines while
// replies are in flight. Every answer a caller does get must be the
// answer to its own request, never a late reply to an abandoned one.
func TestAbandonedRepliesNeverCrossCalls(t *testing.T) {
	c := dial(t, serveQuiet(t, echoBackend{}))
	timeouts := []time.Duration{50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 0}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				want := uint64(g*1000 + i)
				probe := tensor.NewCoords(2, 1)
				probe.Append(want, uint64(i))
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if d := timeouts[rng.Intn(len(timeouts))]; d > 0 {
					ctx, cancel = context.WithTimeout(ctx, d)
				}
				res, _, err := c.Query(ctx, store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest})
				cancel()
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("query %d: %v", want, err)
					}
					continue
				}
				if got := res.Coords.At(0); got[0] != want || got[1] != uint64(i) || res.Values[0] != float64(want) {
					t.Errorf("query (%d,%d) answered with %v = %v", want, i, got, res.Values)
				}
			}
		}(g)
	}
	wg.Wait()
}
