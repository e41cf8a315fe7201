package store

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// comparisonOrder is the order mergeHits' comparison sort produced
// before the radix pass replaced it, kept as the oracle: by address,
// ties by fragment recency, then by extraction index.
func comparisonOrder(hits []hit) []hit {
	idx := make([]int, len(hits))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(hits[a].addr, hits[b].addr), cmp.Compare(hits[a].frag, hits[b].frag), cmp.Compare(a, b))
	})
	out := make([]hit, len(hits))
	for i, j := range idx {
		out[i] = hits[j]
	}
	return out
}

// TestOrderHitsMatchesComparisonOrder: the radix order is the
// comparison order it replaced, over hits laid out as readView appends
// them — fragment by fragment, oldest first — with duplicates inside one
// fragment and across fragments, at address widths that take one to
// six radix passes (an odd count among them), and on hits already in
// order, which come back where they lie.
func TestOrderHitsMatchesComparisonOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, width := range []uint{1, 4, 11, 18, 23, 33, 40, 64} {
		for trial := 0; trial < 20; trial++ {
			var hits []hit
			frags := 1 + rng.Intn(8)
			for f := 0; f < frags; f++ {
				for n := rng.Intn(300); n > 0; n-- {
					addr := rng.Uint64()
					if width < 64 {
						addr &= 1<<width - 1
					}
					if len(hits) > 0 && rng.Intn(4) == 0 {
						addr = hits[rng.Intn(len(hits))].addr // a cell written again
					}
					hits = append(hits, hit{addr: addr, frag: f, val: float64(len(hits))})
				}
			}
			want := comparisonOrder(hits)
			if got := orderHits(slices.Clone(hits)); !slices.Equal(got, want) {
				t.Fatalf("width %d trial %d: radix order differs from the comparison order", width, trial)
			}
			if got := orderHits(want); len(want) > 0 && &got[0] != &want[0] {
				t.Fatalf("width %d: ordered hits were moved", width)
			}
		}
	}
}

// TestMergeHitsMatchesComparisonMerge: on every kind's own extraction
// order — scans in payload order, COO keeping a batch's duplicates, and
// probes in address order — with duplicates inside a batch, overwrites
// across fragments and tombstones, mergeHits answers exactly what it
// answers over the comparison order (hits already in order take no
// radix pass, so that is the old merge).
func TestMergeHitsMatchesComparisonMerge(t *testing.T) {
	shape := tensor.Shape{12, 10, 9}
	whole := tensor.Region{Start: []uint64{0, 0, 0}, Size: shape}
	window := tensor.Region{Start: []uint64{2, 1, 3}, Size: []uint64{8, 7, 5}}
	for _, f := range core.Registered() {
		kind := f.Kind()
		t.Run(kind.String(), func(t *testing.T) {
			st, err := Create(newSim(t), "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(kind) + 7))
			for i := 0; i < 5; i++ {
				c, vals := randomPoints(rng, shape, 200)
				for d := 0; d < 20; d++ { // rewrite some of its own points, later in the payload
					c.Append(c.At(rng.Intn(200))...)
					vals = append(vals, rng.NormFloat64())
				}
				if _, err := st.Write(c, vals); err != nil {
					t.Fatal(err)
				}
				if i == 2 {
					del := tensor.Region{Start: []uint64{3, 2, 0}, Size: []uint64{5, 4, 9}}
					if _, err := st.DeleteRegion(del); err != nil {
						t.Fatal(err)
					}
				}
			}
			tl := only(st)
			v := tl.acquireView()
			defer v.release()
			tombs := tombstonesUpTo(v.frags, len(v.frags))
			for _, pl := range []readPlan{
				tl.scanPlan(nil),
				tl.scanPlan(&window),
				tl.planRead(QueryRequest{Probe: window.Coords()}),
				tl.planRead(QueryRequest{Region: &whole, Strategy: StrategyAuto}),
			} {
				acc := &readAcc{}
				for fi := range v.frags {
					fr := &v.frags[fi]
					if fr.tomb || fr.nnz == 0 || !fr.bbox.Overlaps(pl.box) {
						continue
					}
					if err := tl.readFragment(nil, fi, fr, &pl, acc); err != nil {
						t.Fatal(err)
					}
				}
				want, wantLive, _ := mergeHits(tl, comparisonOrder(acc.hits), tombs, nil)
				got, gotLive, _ := mergeHits(tl, acc.hits, tombs, nil)
				if !sameResult(got, want) || gotLive != wantLive {
					t.Fatalf("radix merge %+v differs from the comparison merge %+v", gotLive, wantLive)
				}
				if wantLive.overwritten == 0 {
					t.Fatal("the hits hold no overwrite")
				}
			}
		})
	}
}

// TestMergeResultsMergesDisjointRuns: parts that are each in row-major
// order over disjoint cells — tiles of one grid, in any order — merge
// into the row-major order of their union.
func TestMergeResultsMergesDisjointRuns(t *testing.T) {
	shape, tile := tensor.Shape{40, 30, 20}, tensor.Shape{8, 16, 5}
	tiling := Tiling{Shape: shape, Tile: tile}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		cells := map[uint64]float64{}
		for n := rng.Intn(2000); n > 0; n-- {
			cells[rng.Uint64()%(40*30*20)] = rng.NormFloat64()
		}
		addrs := slices.Sorted(maps.Keys(cells))
		want := &Result{Coords: tensor.NewCoords(3, 0)}
		byTile := map[string]*Result{}
		var parts []*Result
		p, idx := make([]uint64, 3), make([]uint64, 3)
		for _, a := range addrs {
			lin.Delinearize(a, p)
			want.Coords.Append(p...)
			want.Values = append(want.Values, cells[a])
			tiling.Index(idx, p)
			name := string(tiling.AppendName(nil, idx))
			part := byTile[name]
			if part == nil {
				part = &Result{Coords: tensor.NewCoords(3, 0)}
				byTile[name] = part
				parts = append(parts, part)
			}
			part.Coords.Append(p...)
			part.Values = append(part.Values, cells[a])
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		parts = append(parts, nil, &Result{Coords: tensor.NewCoords(3, 0)})
		if got := MergeResults(3, parts); !sameResult(got, want) {
			t.Fatalf("trial %d: merge of %d parts is not the row-major union", trial, len(parts))
		}
	}
}
