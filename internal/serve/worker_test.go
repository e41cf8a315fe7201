package serve

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"sparseart/internal/obs"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// gateBackend parks a query whose first coordinate is slow until gate
// closes or its context ends; every other query answers at once with
// its own probe.
type gateBackend struct {
	Backend
	slow    uint64
	entered chan struct{}
	gate    chan struct{}
}

func (b *gateBackend) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	if req.Probe.At(0)[0] == b.slow {
		b.entered <- struct{}{}
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return &store.Result{Coords: req.Probe, Values: make([]float64, req.Probe.Len())}, &store.ReadReport{}, nil
}

// listen serves b on loopback under cfg and returns the server and its
// address; the caller closes the server.
func listen(t *testing.T, b Backend, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Obs = obs.New()
	srv := NewServer(b, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

func probeOf(v uint64) store.QueryRequest {
	c := tensor.NewCoords(1, 1)
	c.Append(v)
	return store.QueryRequest{Probe: c, AsOf: store.AsOfLatest}
}

// waitGoroutines polls until at most want goroutines are live.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines live, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseEndsWorkers: after Close, the process is back to the
// goroutines it had before the server started — workers included, and
// also when Close lands while requests are still executing.
func TestCloseEndsWorkers(t *testing.T) {
	for _, inFlight := range []int{0, 3} {
		base := runtime.NumGoroutine()
		b := &gateBackend{slow: 7, entered: make(chan struct{}, 8), gate: make(chan struct{})}
		srv, addr := listen(t, b, Config{MaxInFlight: 4})
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := uint64(0); i < 20; i++ {
			if _, _, err := c.Query(ctx, probeOf(i+100)); err != nil {
				t.Fatal(err)
			}
		}
		var parked sync.WaitGroup
		for i := 0; i < inFlight; i++ {
			parked.Add(1)
			go func() {
				defer parked.Done()
				c.Query(ctx, probeOf(7)) // ends with the server
			}()
			<-b.entered
		}
		srv.Close()
		parked.Wait()
		c.Close()
		if n := srv.workers.Load(); n != 0 {
			t.Errorf("%d requests in flight at Close: %d workers left", inFlight, n)
		}
		waitGoroutines(t, base)
	}
}

// TestWorkersBoundedByWindow drives a backend that blocks at four times
// the window: the window's worth of requests execute, every other one
// is refused as overloaded, and no more workers than the window ever
// exist — while requests block, and after many rounds of churn.
func TestWorkersBoundedByWindow(t *testing.T) {
	const window = 4
	b := &gateBackend{slow: 7, entered: make(chan struct{}, 4*window), gate: make(chan struct{})}
	srv, addr := listen(t, b, Config{MaxInFlight: window})
	defer srv.Close()
	clients := make([]*Client, window)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	ctx := context.Background()
	var peak sync.WaitGroup
	stop := make(chan struct{})
	maxSeen := int64(0)
	peak.Add(1)
	go func() {
		defer peak.Done()
		for {
			if n := srv.workers.Load(); n > maxSeen {
				maxSeen = n
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	// Fill the window with parked requests, one connection each.
	held := make(chan error, window)
	for i := 0; i < window; i++ {
		go func(c *Client) {
			_, _, err := c.Query(ctx, probeOf(7))
			held <- err
		}(clients[i])
		<-b.entered
	}
	// Three times as many again, from every connection at once: each
	// is refused as typed, none waits.
	var refused sync.WaitGroup
	for i := 0; i < 3*window; i++ {
		refused.Add(1)
		go func(c *Client) {
			defer refused.Done()
			_, _, err := c.Query(ctx, probeOf(7))
			if !errors.Is(err, wire.ErrOverloaded) {
				t.Errorf("query over a full window: %v, want ErrOverloaded", err)
			}
		}(clients[i%window])
	}
	refused.Wait()
	close(b.gate)
	for i := 0; i < window; i++ {
		if err := <-held; err != nil {
			t.Errorf("admitted query: %v", err)
		}
	}

	// Churn: every connection keeps the window busy; refusals are
	// allowed, wrong answers and extra workers are not.
	var churn sync.WaitGroup
	for g := 0; g < 4*window; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			c := clients[g%window]
			for i := 0; i < 50; i++ {
				v := uint64(1000*g + i + 100)
				res, _, err := c.Query(ctx, probeOf(v))
				if errors.Is(err, wire.ErrOverloaded) {
					continue
				}
				if err != nil || res.Coords.At(0)[0] != v {
					t.Errorf("query %d: %v", v, err)
					return
				}
			}
		}(g)
	}
	churn.Wait()
	close(stop)
	peak.Wait()
	if maxSeen > window || srv.workers.Load() > window {
		t.Errorf("%d workers at peak, %d now: want at most the window, %d", maxSeen, srv.workers.Load(), window)
	}
}

// TestSlowRequestDoesNotHoldBackFast: one connection pipelines a request
// that parks in the backend and then a quick one; the quick one is
// answered while the slow one still executes.
func TestSlowRequestDoesNotHoldBackFast(t *testing.T) {
	b := &gateBackend{slow: 7, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv, addr := listen(t, b, Config{MaxInFlight: 8})
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	slow := make(chan error, 1)
	go func() {
		_, _, err := c.Query(ctx, probeOf(7))
		slow <- err
	}()
	<-b.entered
	for i := uint64(100); i < 110; i++ {
		fast, cancel := context.WithTimeout(ctx, 5*time.Second)
		res, _, err := c.Query(fast, probeOf(i))
		cancel()
		if err != nil || res.Coords.At(0)[0] != i {
			t.Fatalf("fast query %d behind a slow one: %v", i, err)
		}
	}
	select {
	case err := <-slow:
		t.Fatalf("slow query finished before its gate opened: %v", err)
	default:
	}
	close(b.gate)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}
