// Climate: the linear-address overflow scenario of §II-B. A
// century-scale, high-resolution climate archive is logically a 4D
// tensor (time x level x lat x lon) whose volume can exceed uint64 —
// here 2^24 time steps at millimeter-ish grid resolution for effect —
// so LINEAR's single-address trick cannot apply globally. The paper's
// remedy is block decomposition with per-block local boundaries; this
// example drives the chunked store over such a domain, ingesting
// sensor-sparse observations and reading a window back, and shows the
// same data routed to an auto-strategy region read.
package main

import (
	"context"
	"fmt"
	"log"

	"sparseart"
)

func main() {
	// A domain too large for one linear address space:
	// 2^24 x 2^10 x 2^16 x 2^17 = 2^67 cells.
	shape := sparseart.Shape{1 << 24, 1 << 10, 1 << 16, 1 << 17}
	if _, ok := shape.Volume(); ok {
		log.Fatal("expected the domain to overflow uint64")
	}
	// Tiles of 2^10 x 2^8 x 2^10 x 2^10 = 2^38 cells: comfortably
	// addressable locally.
	tile := sparseart.Shape{1 << 10, 1 << 8, 1 << 10, 1 << 10}

	fs := sparseart.NewPerlmutterSim()
	st, err := sparseart.CreateChunkedStore(fs, "climate", sparseart.LINEAR, shape, tile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chunked LINEAR store over %v (volume > uint64), tiles %v\n\n", shape, tile)

	// Observations: a handful of stations reporting over a time range,
	// deliberately scattered across distant tiles.
	type station struct{ level, lat, lon uint64 }
	stations := []station{
		{3, 40000, 100000},
		{3, 40010, 100004},
		{900, 65000, 130000},
		{12, 100, 50},
	}
	coords := sparseart.NewCoords(4, 0)
	var temps []float64
	for tstep := uint64(1 << 20); tstep < (1<<20)+48; tstep++ {
		for si, s := range stations {
			coords.Append(tstep, s.level, s.lat, s.lon)
			temps = append(temps, 250+float64(si)+float64(tstep%7))
		}
	}
	rep, err := st.Write(coords, temps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d observations into %d tiles (%d bytes, write %.2f ms)\n",
		rep.NNZ, st.Tiles(), rep.Bytes, rep.Sum().Seconds()*1e3)

	// Window read: one station's neighborhood over the whole period.
	region, err := sparseart.NewRegion(shape,
		[]uint64{1 << 20, 0, 39990, 99990},
		[]uint64{64, 16, 40, 40})
	if err != nil {
		log.Fatal(err)
	}
	res, rrep, err := st.Query(context.Background(), sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest})
	if err != nil {
		log.Fatal(err)
	}
	var sum float64
	for _, v := range res.Values {
		sum += v
	}
	fmt.Printf("window read: %d observations (mean %.2f K) in %.2f ms across %d fragments\n",
		res.Coords.Len(), sum/float64(max(len(res.Values), 1)),
		rrep.Sum().Seconds()*1e3, rrep.Fragments)

	// The same data in a flat (single-tile-scale) store, read with the
	// cost-model auto strategy for comparison.
	local := sparseart.Shape{64, 1 << 8, 1 << 10, 1 << 10}
	flat, err := sparseart.CreateStoreOn(fs, "climate-local", sparseart.LINEAR, local)
	if err != nil {
		log.Fatal(err)
	}
	lc := sparseart.NewCoords(4, 0)
	var lv []float64
	for i := 0; i < coords.Len(); i++ {
		p := coords.At(i)
		if p[0] < (1<<20)+64 && p[2] < 1<<10 && p[3] < 1<<10 {
			lc.Append(p[0]-(1<<20), p[1], p[2], p[3])
			lv = append(lv, temps[i])
		}
	}
	if lc.Len() > 0 {
		if _, err := flat.Write(lc, lv); err != nil {
			log.Fatal(err)
		}
		lr, err := sparseart.NewRegion(local, []uint64{0, 0, 0, 0}, []uint64{48, 16, 256, 256})
		if err != nil {
			log.Fatal(err)
		}
		_, arep, err := flat.Query(context.Background(), sparseart.QueryRequest{Region: &lr, AsOf: sparseart.AsOfLatest})
		if err != nil {
			log.Fatal(err)
		}
		strategy := "probed"
		if arep.Scans > 0 {
			strategy = "scanned"
		}
		fmt.Printf("auto-strategy read of the local window: %s %d points in %.2f ms\n",
			strategy, arep.Probed, arep.Sum().Seconds()*1e3)
	}
}
