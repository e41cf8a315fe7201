package coretest

import (
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// FuzzOpen is the shared fuzz body for format payload parsers: Open
// must reject or accept arbitrary bytes without panicking, and any
// accepted reader must answer lookups and walks without panicking
// either.
func FuzzOpen(f *testing.F, format core.Format) {
	shape, c := PaperExample()
	built, err := format.Build(c, shape)
	if err != nil {
		f.Fatal(err)
	}
	mangled := append([]byte(nil), built.Payload...)
	mangled[len(mangled)/2] ^= 0xFF
	for _, seed := range [][]byte{built.Payload, {}, built.Payload[:8], mangled} {
		f.Add(seed)
	}
	region := tensor.Region{Start: []uint64{0, 1, 0}, Size: []uint64{3, 2, 2}}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := format.Open(payload, shape)
		if err != nil {
			return
		}
		if r.NNZ() < 0 {
			t.Fatal("negative NNZ")
		}
		r.Lookup([]uint64{0, 0, 0})
		r.Lookup([]uint64{2, 2, 2})
		count := 0
		bounded := func([]uint64, int) bool { count++; return count < 1000 } // bound walks of nonsense structures
		r.(core.Iterator).Each(bounded)
		r.(core.RegionScanner).ScanRegion(region, bounded)
	})
}
