package main

import (
	"context"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// The oracle is what every reply is judged by, so it is itself checked
// against a tiny real store, in each of the paper's five organizations:
// overlapping writes (newest wins), a region delete, rewrites into the
// deleted region, then exact probes, region digests and a region sum.
func TestOracleAgreesWithStoreInAllPaperKinds(t *testing.T) {
	shape, tile := tensor.Shape{16, 16, 16}, tensor.Shape{8, 8, 8}
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			ctx := context.Background()
			st, err := store.NewChunked(fsim.NewPerlmutterSim(), "t", kind, shape, tile, store.WithReaderCache(defaultCache))
			if err != nil {
				t.Fatal(err)
			}
			o, err := newOracle(shape)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(kind)))
			write := func(g uint32, n int) {
				seen := map[uint64]bool{}
				coords := tensor.NewCoords(3, n)
				for coords.Len() < n {
					p := []uint64{uint64(rng.Intn(16)), uint64(rng.Intn(16)), uint64(rng.Intn(16))}
					if a := o.lin.Linearize(p); !seen[a] {
						seen[a] = true
						coords.Append(p...)
					}
				}
				vals := make([]float64, n)
				o.fill(coords, vals, g)
				if _, err := st.WriteBatch([]store.Batch{{Coords: coords, Values: vals}}, 0); err != nil {
					t.Fatal(err)
				}
				o.apply(coords, g)
			}
			write(1, 600)
			write(2, 600) // overlaps write 1: the newest value must win
			del := tensor.Region{Start: []uint64{4, 0, 0}, Size: []uint64{6, 16, 16}}
			if _, err := st.DeleteRegion(del); err != nil {
				t.Fatal(err)
			}
			o.deleteRegion(del)
			if dg := o.region(del); dg.count != 0 {
				t.Fatalf("oracle holds %d cells in the deleted region", dg.count)
			}
			write(3, 400) // some land in the deleted region and live again

			live := 0
			for a := range o.gen {
				if o.gen[a].Load() != 0 {
					live++
				}
			}
			if int64(live) != o.live.Load() || live == 0 {
				t.Fatalf("oracle counts %d live cells, holds %d", o.live.Load(), live)
			}

			// Every cell, probed: present cells with exactly the oracle's
			// value, absent cells absent.
			probe := tensor.NewCoords(3, 1)
			probe.Append(0, 0, 0)
			for a := uint64(0); a < uint64(len(o.gen)); a += 7 {
				o.lin.Delinearize(a, probe.At(0))
				res, _, err := st.Query(ctx, store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest})
				if err != nil {
					t.Fatal(err)
				}
				_, g := o.lookup(probe.At(0))
				switch {
				case g == 0 && res.Coords.Len() != 0:
					t.Fatalf("cell %v: store has a value, oracle has none", probe.At(0))
				case g != 0 && (res.Coords.Len() != 1 || res.Values[0] != cellValue(a, g)):
					t.Fatalf("cell %v: store %v, oracle write %d value %v", probe.At(0), res.Values, g, cellValue(a, g))
				case g != 0 && writeOf(res.Values[0]) != g:
					t.Fatalf("value %v does not name write %d", res.Values[0], g)
				}
			}

			// Windows across tile borders and the delete border.
			for _, reg := range []tensor.Region{
				{Start: []uint64{0, 0, 0}, Size: []uint64{16, 16, 16}},
				{Start: []uint64{2, 5, 7}, Size: []uint64{9, 6, 3}},
				del,
			} {
				res, _, err := st.Query(ctx, store.QueryRequest{Region: &reg, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto})
				if err != nil {
					t.Fatal(err)
				}
				want, got := o.region(reg), o.digestResult(res.Coords, res.Values)
				if got.count != want.count || got.check != want.check || !closeTo(got.sum, want.sum) {
					t.Fatalf("region %v: store %+v, oracle %+v", reg, got, want)
				}
				if want.count == 0 {
					t.Fatalf("region %v is empty: the test checks nothing", reg)
				}
				kr, err := st.Kernel(ctx, store.KernelRequest{Op: store.KernelSumRegion, Region: &reg})
				if err != nil {
					t.Fatal(err)
				}
				if len(kr.Values) != 1 || !closeTo(kr.Values[0], want.sum) {
					t.Fatalf("region %v: kernel sum %v, oracle %v", reg, kr.Values, want.sum)
				}
			}

			// A corrupted reply must not pass: one wrong value, one point
			// moved, one point dropped.
			all := tensor.Region{Start: []uint64{0, 0, 0}, Size: []uint64{16, 16, 16}}
			res, _, err := st.Query(ctx, store.QueryRequest{Region: &all, AsOf: store.AsOfLatest})
			if err != nil {
				t.Fatal(err)
			}
			want := o.region(all)
			vals := append([]float64(nil), res.Values...)
			vals[3]++
			if o.digestResult(res.Coords, vals).check == want.check {
				t.Error("a wrong value keeps the checksum")
			}
			moved := res.Coords.Clone()
			moved.At(5)[2] ^= 1
			if o.digestResult(moved, res.Values).check == want.check {
				t.Error("a moved point keeps the checksum")
			}
			short, _ := tensor.FromFlat(3, res.Coords.Flat()[3:])
			if dg := o.digestResult(short, res.Values[1:]); dg.check == want.check || dg.count == want.count {
				t.Error("a dropped point goes unnoticed")
			}
		})
	}
}

func TestScaleTilesRoundTrip(t *testing.T) {
	for _, sc := range []*scale{&fullScale, &smokeScale} {
		_, n := sc.tiles()
		seen := map[int]bool{}
		for tl := 0; tl < n; tl++ {
			org := sc.tileOrigin(tl)
			if got := sc.tileOf(org); got != tl {
				t.Fatalf("%s: tile %d starts at %v, which is in tile %d", sc.Name, tl, org, got)
			}
			seen[tl] = true
		}
		if len(seen) != n {
			t.Fatalf("%s: %d distinct tiles of %d", sc.Name, len(seen), n)
		}
		if primed := (sc.PrimeCalls - sc.PrimeCalls/sc.DeleteEvery) * sc.IngestBatches; primed < n {
			t.Errorf("%s: priming places %d batches, fewer than the %d tiles it must create", sc.Name, primed, n)
		}
		band := sc.band()
		if _, err := tensor.NewRegion(sc.Shape, band.Start, band.Size); err != nil {
			t.Fatalf("%s: band %v: %v", sc.Name, band, err)
		}
	}
}
