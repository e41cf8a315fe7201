package store

import (
	"context"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// probeAllocs checks that a warm one-point probe of q costs at most
// budget heap allocations, and that it finds the point.
func probeAllocs(t *testing.T, q querier, probe *tensor.Coords, budget float64) {
	t.Helper()
	ctx := context.Background()
	req := QueryRequest{Probe: probe, AsOf: AsOfLatest}
	res, _, err := q.Query(ctx, req)
	if err != nil || res.Coords.Len() != 1 {
		t.Fatalf("probe found %v (%v), want the point", res, err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, _, err := q.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per probe (budget %.0f)", got, budget)
	if got > budget {
		t.Errorf("%.1f allocations per probe, budget %.0f", got, budget)
	}
}

// tileFragments writes 64 fragments of 8 random points each into the
// 16³ cube at origin through w, so that every fragment's box spans most
// of the cube and the key filters, not the boxes, pick the fragment to
// fetch. It returns a point that exactly one fragment holds.
func tileFragments(t *testing.T, w func(*tensor.Coords, []float64) (*WriteReport, error), origin uint64) *tensor.Coords {
	t.Helper()
	rng := rand.New(rand.NewSource(36))
	frags := make([]*tensor.Coords, 64)
	seen := map[[3]uint64]int{}
	for f := range frags {
		frags[f] = tensor.NewCoords(3, 8)
		for i := 0; i < 8; i++ {
			p := [3]uint64{origin + uint64(rng.Intn(16)), origin + uint64(rng.Intn(16)), origin + uint64(rng.Intn(16))}
			frags[f].Append(p[:]...)
			seen[p]++
		}
		if _, err := w(frags[f], make([]float64, 8)); err != nil {
			t.Fatal(err)
		}
	}
	probe := tensor.NewCoords(3, 1)
	for i := 0; i < 8; i++ {
		if p := frags[10].At(i); seen[[3]uint64(p)] == 1 {
			probe.Append(p...)
			return probe
		}
	}
	t.Fatal("fragment 10 holds no point of its own")
	return nil
}

// TestChunkedProbeAllocs: a warm one-point probe of a tile holding 64
// overlapping CSF fragments allocates its reply — the result and its
// report — the tile-local probe and its one hit: no partition of the
// probe by tile, no candidate list, no probe bounds, no sort of a
// single run, no merge across tiles.
func TestChunkedProbeAllocs(t *testing.T) {
	c, err := NewChunked(newSim(t), "c", core.CSF, tensor.Shape{64, 64, 64}, tensor.Shape{16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	probe := tileFragments(t, c.Write, 16)
	probeAllocs(t, c, probe, 12)
}

// TestStoreProbeAllocs is TestChunkedProbeAllocs on a flat store of the
// same 64 fragments.
func TestStoreProbeAllocs(t *testing.T) {
	st, err := Create(newSim(t), "t", core.CSF, tensor.Shape{16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	probe := tileFragments(t, st.Write, 0)
	probeAllocs(t, st, probe, 8)
}
