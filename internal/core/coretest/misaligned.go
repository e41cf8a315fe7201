package coretest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// placed copies payload shift bytes past a word boundary. At shift 0
// an Open reads its vectors by view (on a little-endian host); at 1–7
// they lie off their word boundaries and are read by copy.
func placed(payload []byte, shift int) []byte {
	b := buf.Aligned(shift+len(payload), 0)[shift:]
	copy(b, payload)
	return b
}

// openResult is what an Open did with one payload: its error text, or
// the reader's answers.
func openResult(f core.Format, payload []byte, shape tensor.Shape, probes [][]uint64, region tensor.Region) string {
	r, err := f.Open(payload, shape)
	if err != nil {
		return "error: " + err.Error()
	}
	out := fmt.Sprintf("nnz %d words %d\n", r.NNZ(), r.(core.PayloadSizer).IndexWords())
	for _, p := range probes {
		slot, ok := r.Lookup(p)
		out += fmt.Sprintf("lookup %v %d %v\n", p, slot, ok)
	}
	out += fmt.Sprintf("each %v\n", recordWalk(r.(core.Iterator).Each, 0))
	scan := func(visit func([]uint64, int) bool) { r.(core.RegionScanner).ScanRegion(region, visit) }
	return out + fmt.Sprintf("scan %v\n", recordWalk(scan, 0))
}

// checkMisaligned opens a payload placed on a word boundary and copies
// of it shifted by 1–7 bytes, and requires identical answers from
// Lookup, Each and ScanRegion. Corrupted payloads must fail the same
// way on both paths.
func checkMisaligned(t *testing.T, f core.Format) {
	shape := tensor.Shape{9, 7, 8}
	rng := rand.New(rand.NewSource(29))
	c := randomDataset(rng, shape, 150)
	built, _ := buildOpen(t, f, shape, c)
	probes := [][]uint64{{8, 6, 7}, {0, 0, 0}}
	for i := 0; i < c.Len(); i += 3 {
		probes = append(probes, slices.Clone(c.At(i)))
	}
	region := tensor.Region{Start: []uint64{2, 1, 3}, Size: []uint64{5, 4, 4}}

	variants := [][]byte{built.Payload, built.Payload[:len(built.Payload)-7]}
	for i := 0; i < 24; i++ {
		// Overwrite one word of the body: a coordinate past its extent,
		// a pos running backwards or past its level, or a valid value.
		v := slices.Clone(built.Payload)
		off := 8 + rng.Intn(len(v)-8)
		for j := off; j < min(off+8, len(v)); j++ {
			v[j] = byte(rng.Intn(3) * 0x7f)
		}
		variants = append(variants, v)
	}
	for i, payload := range variants {
		want := openResult(f, placed(payload, 0), shape, probes, region)
		if i == 0 && strings.HasPrefix(want, "error:") {
			t.Fatalf("%v: aligned payload %s", f.Kind(), want)
		}
		if i == 1 && !strings.HasPrefix(want, "error:") {
			t.Fatalf("%v: truncated payload accepted", f.Kind())
		}
		for shift := 1; shift < 8; shift++ {
			if got := openResult(f, placed(payload, shift), shape, probes, region); got != want {
				t.Fatalf("%v: variant %d shifted by %d answers\n%s\nthe aligned payload answers\n%s", f.Kind(), i, shift, got, want)
			}
		}
	}
}
