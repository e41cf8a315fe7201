package main

import (
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// startShard serves a fresh chunked store on a loopback port.
func startShard(t *testing.T, shape, tile tensor.Shape) string {
	t.Helper()
	reg := obs.New()
	c, err := store.NewChunked(fsim.NewPerlmutterSim(), "shard", core.CSF, shape, tile, store.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.StoreBackend(c), serve.Config{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// startRouter runs the command in front of shards and returns its data
// address, read from -data-addr-file. SIGTERM at cleanup takes run's
// own shutdown path.
func startRouter(t *testing.T, shards []string) string {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-shards", strings.Join(shards, " , "), "-data-addr", "127.0.0.1:0", "-data-addr-file", addrFile})
	}()
	t.Cleanup(func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("sparserouter: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("sparserouter did not shut down on SIGTERM")
		}
	})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data))
		}
		select {
		case err := <-done:
			t.Fatalf("sparserouter exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("sparserouter never wrote its address file")
		}
	}
}

// TestRouterCommandMatchesLocalChunked: what a client gets through the
// command — two shards behind it — for a region Query and a
// KernelSumRegion is what one local Chunked holding the same writes
// answers.
func TestRouterCommandMatchesLocalChunked(t *testing.T) {
	shape, tile := tensor.Shape{24, 24}, tensor.Shape{8, 8}
	addr := startRouter(t, []string{startShard(t, shape, tile), startShard(t, shape, tile)})
	client, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	local, err := store.NewChunked(fsim.NewPerlmutterSim(), "local", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 3; round++ { // later rounds overwrite earlier cells
		coords := tensor.NewCoords(2, 120)
		values := make([]float64, 120)
		for i, cell := range rng.Perm(24 * 24)[:120] {
			coords.Append(uint64(cell/24), uint64(cell%24))
			values[i] = float64(rng.Intn(1000)) // integers: shard partials sum exactly in any order
		}
		batch := []store.Batch{{Coords: coords, Values: values}}
		if _, err := client.WriteBatch(ctx, batch, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := local.WriteBatch(batch, 1); err != nil {
			t.Fatal(err)
		}
	}

	region := tensor.Region{Start: []uint64{3, 5}, Size: []uint64{17, 14}}
	got, _, err := client.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest})
	if err != nil {
		t.Fatal(err)
	}
	if want.Coords.Len() == 0 || !reflect.DeepEqual(got.Coords.Flat(), want.Coords.Flat()) || !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatalf("region query through the router: %d cells, local chunked has %d (or they differ)", got.Coords.Len(), want.Coords.Len())
	}

	kgot, err := client.Kernel(ctx, store.KernelRequest{Op: store.KernelSumRegion, Region: &region})
	if err != nil {
		t.Fatal(err)
	}
	kwant, err := local.Kernel(ctx, store.KernelRequest{Op: store.KernelSumRegion, Region: &region})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kgot.Values, kwant.Values) || kgot.Report.Cells != int64(want.Coords.Len()) {
		t.Fatalf("KernelSumRegion through the router = %v over %d cells, local chunked %v over %d",
			kgot.Values, kgot.Report.Cells, kwant.Values, want.Coords.Len())
	}
}
