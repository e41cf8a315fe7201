package main

import (
	"fmt"

	"sparseart/internal/gen"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// scale fixes every size of a run. fullScale is what the benchmark
// measures; smokeScale drives the same code in a few seconds so that
// tier-1 `go test ./...` notices API drift.
type scale struct {
	Name  string       `json:"name"`
	Shape tensor.Shape `json:"shape"`
	Tile  tensor.Shape `json:"tile"`
	// Common dataset of the read workloads: Batches full-domain MSP
	// samples of about BatchNNZ points each, so every batch leaves one
	// fragment in every tile.
	Batches  int `json:"batches"`
	BatchNNZ int `json:"batch_nnz"`
	// Edge of region_cold's cubic read window and kernel_scan's cubic
	// reduction window.
	RegionEdge uint64 `json:"region_edge"`
	KernelEdge uint64 `json:"kernel_edge"`
	// region_cold opens each shard with a reader cache of stored
	// bytes / CacheDiv.
	CacheDiv int64 `json:"cache_div"`
	// ingest_mixed: every WriteBatch call carries IngestBatches
	// tile-local GSP batches of about IngestNNZ points, drawn from a
	// pool of IngestPool coordinate sets; every DeleteEvery-th call is a
	// DeleteRegion of the reserved band; a tile compacts in the
	// background at CompactAt fragments; PrimeCalls calls run in set-up
	// so the reader has acknowledged points from the first request.
	IngestBatches int `json:"ingest_batches"`
	IngestNNZ     int `json:"ingest_nnz"`
	IngestPool    int `json:"ingest_pool"`
	DeleteEvery   int `json:"delete_every"`
	CompactAt     int `json:"compact_at"`
	PrimeCalls    int `json:"prime_calls"`
	ReaderRate    int `json:"reader_rate"`
}

var fullScale = scale{
	Name: "full", Shape: tensor.Shape{256, 256, 256}, Tile: tensor.Shape{64, 64, 64},
	Batches: 64, BatchNNZ: 20000, RegionEdge: 32, KernelEdge: 16, CacheDiv: 8,
	IngestBatches: 4, IngestNNZ: 512, IngestPool: 32, DeleteEvery: 16, CompactAt: 32, PrimeCalls: 128, ReaderRate: 200,
}

var smokeScale = scale{
	Name: "smoke", Shape: tensor.Shape{32, 32, 32}, Tile: tensor.Shape{16, 16, 16},
	Batches: 8, BatchNNZ: 600, RegionEdge: 8, KernelEdge: 4, CacheDiv: 8,
	IngestBatches: 4, IngestNNZ: 64, IngestPool: 8, DeleteEvery: 4, CompactAt: 8, PrimeCalls: 4, ReaderRate: 200,
}

// tiles returns the tile grid extents and the tile count.
func (sc *scale) tiles() (grid []uint64, n int) {
	grid = make([]uint64, len(sc.Shape))
	n = 1
	for d := range grid {
		grid[d] = (sc.Shape[d] + sc.Tile[d] - 1) / sc.Tile[d]
		n *= int(grid[d])
	}
	return grid, n
}

// tileOrigin returns the first cell of tile t (row-major over the grid).
func (sc *scale) tileOrigin(t int) []uint64 {
	grid, _ := sc.tiles()
	org := make([]uint64, len(grid))
	for d := len(grid) - 1; d >= 0; d-- {
		org[d] = uint64(t) % grid[d] * sc.Tile[d]
		t /= int(grid[d])
	}
	return org
}

// tileOf returns the tile holding p.
func (sc *scale) tileOf(p []uint64) int {
	grid, _ := sc.tiles()
	t := 0
	for d := range p {
		t = t*int(grid[d]) + int(p[d]/sc.Tile[d])
	}
	return t
}

// band is ingest_mixed's reserved delete band: the last quarter tile
// along the first dimension, full extent elsewhere.
func (sc *scale) band() tensor.Region {
	start := make([]uint64, len(sc.Shape))
	size := append([]uint64(nil), sc.Shape...)
	size[0] = sc.Tile[0] / 4
	start[0] = sc.Shape[0] - size[0]
	return tensor.Region{Start: start, Size: size}
}

// dataset is the read workloads' input: the batches to ingest, the
// oracle after all of them, and each tile's stored cells (the probe
// workload draws from them).
type dataset struct {
	batches  []store.Batch
	oracle   *oracle
	tileAddr [][]uint64
}

// commonDataset generates the read workloads' tensor from the seed:
// gen.MSP, a dense cluster in the middle third amid uniform noise, half
// of each batch's points in either, so the tiles (and with them the
// shards) are unevenly loaded. Batch b is write number b+1.
func commonDataset(sc *scale, seed uint64) (*dataset, error) {
	o, err := newOracle(sc.Shape)
	if err != nil {
		return nil, err
	}
	vol, _ := sc.Shape.Volume()
	cfg := gen.Config{Pattern: gen.MSP, Shape: sc.Shape}
	clusterVol := 1.0
	for _, m := range sc.Shape {
		cfg.ClusterStart = append(cfg.ClusterStart, m/3)
		cfg.ClusterSize = append(cfg.ClusterSize, m/3)
		clusterVol *= float64(m / 3)
	}
	cfg.Prob = float64(sc.BatchNNZ) / 2 / float64(vol)
	cfg.ClusterProb = float64(sc.BatchNNZ) / 2 / clusterVol
	_, ntiles := sc.tiles()
	ds := &dataset{oracle: o, tileAddr: make([][]uint64, ntiles)}
	for b := 0; b < sc.Batches; b++ {
		cfg.Seed = mix64(seed)<<8 + uint64(b)
		g, err := gen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate batch %d: %w", b, err)
		}
		o.fill(g.Coords, g.Values, uint32(b+1))
		o.apply(g.Coords, uint32(b+1))
		ds.batches = append(ds.batches, store.Batch{Coords: g.Coords, Values: g.Values})
	}
	p := make([]uint64, len(sc.Shape))
	for a := range o.gen {
		if o.gen[a].Load() != 0 {
			o.lin.Delinearize(uint64(a), p)
			t := sc.tileOf(p)
			ds.tileAddr[t] = append(ds.tileAddr[t], uint64(a))
		}
	}
	return ds, nil
}

// ingestPool generates ingest_mixed's coordinate sets: gen.GSP
// (uniform scatter) over one tile's extents, to be shifted to the tile
// a batch is aimed at.
func ingestPool(sc *scale, seed uint64) ([]*tensor.Coords, error) {
	vol, _ := sc.Tile.Volume()
	pool := make([]*tensor.Coords, sc.IngestPool)
	for i := range pool {
		g, err := gen.Generate(gen.Config{
			Pattern: gen.GSP, Shape: sc.Tile, Seed: mix64(seed^0x1a7e)<<8 + uint64(i),
			Prob: float64(sc.IngestNNZ) / float64(vol),
		})
		if err != nil {
			return nil, fmt.Errorf("generate pool set %d: %w", i, err)
		}
		pool[i] = g.Coords
	}
	return pool, nil
}
