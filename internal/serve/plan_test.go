package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// querier is the read surface Client and Router share.
type querier interface {
	Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error)
}

// TestServedReadIsPlanned: the wire carries no strategy, so a served
// region read is planned exactly as an in-process one. A zero-strategy
// 32³ window through client → server → Chunked, and through a 2-shard
// router, reports the probes, scans and fragments of a StrategyAuto read
// of the same stores — not a probe of each of its 32 768 cells. A
// forced plan is refused before a frame is sent.
func TestServedReadIsPlanned(t *testing.T) {
	shape, tile := tensor.Shape{64, 64, 64}, tensor.Shape{32, 32, 32}
	window := tensor.Region{Start: []uint64{16, 8, 20}, Size: []uint64{32, 32, 32}}
	ctx := context.Background()
	newStore := func() *store.Store {
		c, err := store.NewChunked(fsim.NewPerlmutterSim(), "s", core.CSF, shape, tile)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	one := newStore()
	reg := obs.New()
	_, client, _ := startServer(t, serve.StoreBackend(one), serve.Config{Obs: reg})
	shards := []*store.Store{newStore(), newStore()}
	var addrs []string
	for _, sh := range shards {
		_, _, addr := startServer(t, serve.StoreBackend(sh), serve.Config{})
		addrs = append(addrs, addr)
	}
	router, err := serve.NewRouter(addrs, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	rng := rand.New(rand.NewSource(44))
	for gen := 0; gen < 3; gen++ {
		coords, values := randomPoints(rng, shape, 1500)
		if _, err := writeOne(ctx, client, coords, values); err != nil {
			t.Fatal(err)
		}
		if _, err := writeOne(ctx, router, coords, values); err != nil {
			t.Fatal(err)
		}
	}

	planned := store.QueryRequest{Region: &window, AsOf: store.AsOfLatest}
	local := func(stores ...*store.Store) *store.ReadReport {
		sum := &store.ReadReport{}
		for _, st := range stores {
			_, rep, err := st.Query(ctx, store.QueryRequest{Region: &window, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto})
			if err != nil {
				t.Fatal(err)
			}
			sum.Add(rep)
		}
		return sum
	}
	for _, c := range []struct {
		name   string
		remote querier
		want   *store.ReadReport
	}{
		{"served", client, local(one)},
		{"routed", router, local(shards...)},
	} {
		_, got, err := c.remote.Query(ctx, planned)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Probed != c.want.Probed || got.Scans != c.want.Scans || got.Fragments != c.want.Fragments {
			t.Fatalf("%s: probed %d, scans %d, fragments %d; in-process planned read: %d, %d, %d",
				c.name, got.Probed, got.Scans, got.Fragments, c.want.Probed, c.want.Scans, c.want.Fragments)
		}
		if vol, _ := window.Volume(); got.Fragments == 0 || uint64(got.Probed) >= vol {
			t.Fatalf("%s: probed %d cells over %d fragments; a planned 32³ read probes fewer than %d", c.name, got.Probed, got.Fragments, vol)
		}
	}

	served := reg.Histogram("serve.request", "op", "query")
	before := served.Count()
	scan := planned
	scan.Strategy = store.StrategyScan
	for name, q := range map[string]querier{"client": client, "router": router} {
		if _, _, err := q.Query(ctx, scan); !errors.Is(err, store.ErrBadRequest) || wire.CodeOf(err) != wire.CodeBadRequest {
			t.Fatalf("%s: a forced scan answered err = %v, want CodeBadRequest", name, err)
		}
	}
	if n := served.Count() - before; n != 0 {
		t.Fatalf("the server handled %d queries for a refused forced scan", n)
	}
}

// TestRouterRefusesForcedPlanItself: a routed read that forces a plan
// is refused by the router with the client's typed error before any
// shard is asked, so neither router.scatter{op=query} nor
// router.shard.errors{op=query} counts a request that never left it.
func TestRouterRefusesForcedPlanItself(t *testing.T) {
	shape, tile := tensor.Shape{16, 16}, tensor.Shape{8, 8}
	reg := obs.New()
	router, err := serve.NewRouter([]string{newShard(t, core.CSF, shape, tile), newShard(t, core.CSF, shape, tile)}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	scatter, shardErrs := reg.Counter("router.scatter", "op", "query"), reg.Counter("router.shard.errors", "op", "query")
	window := tensor.Region{Start: []uint64{2, 2}, Size: []uint64{10, 10}}
	_, _, err = router.Query(context.Background(), store.QueryRequest{Region: &window, AsOf: store.AsOfLatest, Strategy: store.StrategyScan})
	if !errors.Is(err, store.ErrBadRequest) || wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("a forced scan answered err = %v, want CodeBadRequest", err)
	}
	if n, e := scatter.Value(), shardErrs.Value(); n != 0 || e != 0 {
		t.Fatalf("router.scatter{op=query} = %d, router.shard.errors{op=query} = %d for a refused request, want 0 and 0", n, e)
	}
}
