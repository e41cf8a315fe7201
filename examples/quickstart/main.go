// Quickstart: write one small 3D sparse tensor through every storage
// organization the paper studies, read a region back, and print the
// write breakdown (Table III's rows), the fragment size, and the read
// time for each — the whole public API surface in ~100 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sparseart"
)

func main() {
	// A 64x64x64 tensor with a handful of diagonal points plus a tiny
	// dense block — an MSP in miniature.
	shape := sparseart.Shape{64, 64, 64}
	coords := sparseart.NewCoords(3, 0)
	var values []float64
	add := func(x, y, z uint64) {
		coords.Append(x, y, z)
		values = append(values, float64(x*1000000+y*1000+z))
	}
	for i := uint64(0); i < 64; i++ {
		add(i, i, i)
	}
	for x := uint64(30); x < 36; x++ {
		for y := uint64(30); y < 36; y++ {
			add(x, y, 32)
		}
	}
	fmt.Printf("tensor %v with %d non-zero points\n\n", shape, coords.Len())

	// The read query: a region around the dense block.
	region, err := sparseart.NewRegion(shape, []uint64{28, 28, 28}, []uint64{10, 10, 10})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "sparseart-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("%-10s  %-28s  %9s  %8s  %5s\n", "format", "write (build/reorg/write/other)", "bytes", "read", "found")
	for _, kind := range sparseart.Kinds() {
		st, err := sparseart.CreateStore(filepath.Join(dir, kind.String()), kind, shape)
		if err != nil {
			log.Fatal(err)
		}
		wrep, err := st.Write(coords, values)
		if err != nil {
			log.Fatal(err)
		}
		res, rrep, err := st.Query(context.Background(), sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v  %6.3f/%.3f/%.3f/%.3f ms      %9d  %6.3fms  %5d\n",
			kind,
			wrep.Build.Seconds()*1e3, wrep.Reorg.Seconds()*1e3,
			wrep.Write.Seconds()*1e3, wrep.Others.Seconds()*1e3,
			st.TotalBytes(),
			rrep.Sum().Seconds()*1e3,
			res.Coords.Len())

		// Results come back sorted by linear address; spot-check one.
		if res.Coords.Len() > 0 {
			p := res.Coords.At(0)
			fmt.Printf("            first hit %v = %g\n", p, res.Values[0])
		}
	}

	// Point reads with a found mask, aligned to the probe order.
	st, err := sparseart.CreateStore(filepath.Join(dir, "probe"), sparseart.CSF, shape)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := st.Write(coords, values); err != nil {
		log.Fatal(err)
	}
	probe := sparseart.NewCoords(3, 3)
	probe.Append(10, 10, 10) // on the diagonal: present
	probe.Append(10, 11, 12) // absent
	probe.Append(33, 33, 32) // in the block: present
	pres, _, err := st.Query(context.Background(), sparseart.QueryRequest{Probe: probe, AsOf: sparseart.AsOfLatest})
	if err != nil {
		log.Fatal(err)
	}
	vals, found := sparseart.AlignPoints(probe, pres)
	fmt.Println()
	for i := 0; i < probe.Len(); i++ {
		fmt.Printf("point %v: found=%v value=%g\n", probe.At(i), found[i], vals[i])
	}
}
