package store

import (
	"context"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// TestDuplicateInBatchLastWins: a point written twice in one batch
// reads back as its later value whichever path reads it — a probe (the
// index descent), a scan, the cost model's choice, a kernel and an
// export — on every organization, flat and tiled. PushReport.Shadowed
// counts the earlier write as overwritten, so that is the rule every
// path must keep.
func TestDuplicateInBatchLastWins(t *testing.T) {
	shape, tile := tensor.Shape{32, 32}, tensor.Shape{16, 16}
	coords := tensor.NewCoords(2, 3)
	coords.Append(1, 1)
	coords.Append(20, 20)
	coords.Append(1, 1)
	vals := []float64{1, 2, 3}
	window := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{3, 3}}
	probe := tensor.NewCoords(2, 1)
	probe.Append(1, 1)

	kinds := append(core.PaperKinds(), core.COOSorted, core.BCOO)
	for _, kind := range kinds {
		flat, err := Create(newSim(t), "t", kind, shape)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flat.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		tiled, err := NewChunked(newSim(t), "c", kind, shape, tile)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tiled.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		for _, st := range []struct {
			name string
			q    querier
			sum  func(tensor.Region) (float64, error)
			dump func() (*tensor.Coords, []float64, error)
		}{
			{"flat", flat, func(r tensor.Region) (float64, error) {
				res, err := flat.Kernel(context.Background(), KernelRequest{Op: KernelSumRegion, Region: &r})
				if err != nil {
					return 0, err
				}
				return res.Values[0], nil
			}, flat.ExportAll},
			{"chunked", tiled, func(r tensor.Region) (float64, error) {
				res, err := tiled.Kernel(context.Background(), KernelRequest{Op: KernelSumRegion, Region: &r})
				if err != nil {
					return 0, err
				}
				return res.Values[0], nil
			}, tiled.ExportAll},
		} {
			t.Run(kind.String()+"/"+st.name, func(t *testing.T) {
				check := func(path string, res *Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					vals, found := AlignPoints(probe, res)
					if !found[0] || vals[0] != 3 {
						t.Errorf("%s reads (1,1) = %v (found %v), want the later write 3", path, vals[0], found[0])
					}
				}
				res, _, err := readProbe(st.q, probe)
				check("probe", res, err)
				res, _, err = readRegion(st.q, window, StrategyScan)
				check("scan", res, err)
				res, _, err = readRegion(st.q, window, StrategyAuto)
				check("auto", res, err)
				res, _, err = readProbe(st.q, window.Coords())
				check("region probe", res, err)
				if sum, err := st.sum(window); err != nil || sum != 3 {
					t.Errorf("kernel sums the window to %v (%v), want 3", sum, err)
				}
				c, v, err := st.dump()
				check("export", &Result{Coords: c, Values: v}, err)
			})
		}
	}
}
