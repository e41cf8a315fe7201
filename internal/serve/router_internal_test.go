package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// testRouter is a Router over addrs with no connections: enough for
// the placement arithmetic.
func testRouter(shape, tile tensor.Shape, addrs []string) *Router {
	return &Router{
		tiling:  store.Tiling{Shape: shape, Tile: tile},
		addrs:   addrs,
		clients: make([]*Client, len(addrs)),
		ring:    newRing(addrs),
	}
}

// TestOwnerMatchesReferenceHash pins shard placement: the owner of
// every tile is what hash/fnv over the fmt-spelled name picks on the
// ring — the placement every deployed fleet (and the benchmark's 24 / 40
// tile split) was written with.
func TestOwnerMatchesReferenceHash(t *testing.T) {
	addrs := []string{"127.0.0.1:7001", "127.0.0.1:7002", "10.0.0.3:9000", "shard-d:7000", "[::1]:7005"}
	for n := 1; n <= len(addrs); n++ {
		r := testRouter(tensor.Shape{64, 64, 64}, tensor.Shape{8, 8, 8}, addrs[:n])
		owned := make([]int, n)
		var name []byte
		for i := uint64(0); i < 8; i++ {
			for j := uint64(0); j < 8; j++ {
				for k := uint64(0); k < 8; k++ {
					var ref strings.Builder
					ref.WriteString("t")
					for _, v := range []uint64{i, j, k} {
						fmt.Fprintf(&ref, "-%d", v)
					}
					h := fnv.New64a()
					h.Write([]byte(ref.String()))
					key := h.Sum64()
					slot := sort.Search(len(r.ring), func(s int) bool { return r.ring[s].hash >= key })
					if slot == len(r.ring) {
						slot = 0
					}
					name = r.tiling.AppendName(name[:0], []uint64{i, j, k})
					if got, want := r.owner(name), r.ring[slot].shard; got != want {
						t.Fatalf("%d shards: tile %s owned by %d, reference placement %d", n, name, got, want)
					}
					owned[r.owner(name)]++
				}
			}
		}
		for s, tiles := range owned {
			if tiles == 0 {
				t.Errorf("%d shards: shard %d owns none of 512 tiles", n, s)
			}
		}
	}
}

// TestPartitionPointsAllocs: splitting points by owning shard costs per
// shard, not per point.
func TestPartitionPointsAllocs(t *testing.T) {
	r := testRouter(tensor.Shape{32, 16}, tensor.Shape{8, 8}, []string{"a:1", "b:2", "c:3"}) // 8 tiles
	const points = 4096
	coords := tensor.NewCoords(2, points)
	values := make([]float64, points)
	for i := uint64(0); i < points; i++ {
		coords.Append(i%32, (i/32)%16)
	}
	total := 0
	for _, part := range r.partitionPoints(coords, values) {
		if part != nil {
			total += part.coords.Len()
		}
	}
	if total != points {
		t.Fatalf("partition kept %d of %d points", total, points)
	}
	const perShard = 64 // two growing buffers and a header
	if allocs := testing.AllocsPerRun(5, func() { r.partitionPoints(coords, values) }); allocs > 3*perShard {
		t.Errorf("partitioning %d points over 3 shards: %.0f allocations, want <= %d", points, allocs, 3*perShard)
	}
}
