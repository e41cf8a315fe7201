package fragment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// sliceAddr is the address of a slice's first element.
func sliceAddr(s any) uintptr { return reflect.ValueOf(s).Pointer() }

// lies reports whether size bytes at the start of slice s lie inside home.
func lies(s any, size int, home []byte) bool {
	a, h := sliceAddr(s), sliceAddr(home)
	return size > 0 && a >= h && a+uintptr(size) <= h+uintptr(len(home))
}

// answers is everything a reader and its values say about a fragment:
// the walk with each slot's value, every probe, and a window scan.
func answers(r core.Reader, values []float64, probes [][]uint64, region tensor.Region) string {
	var out bytes.Buffer
	step := func(p []uint64, slot int) bool {
		fmt.Fprintf(&out, "%v@%d=%v ", p, slot, values[slot])
		return true
	}
	fmt.Fprintf(&out, "nnz %d\neach ", r.NNZ())
	r.(core.Iterator).Each(step)
	out.WriteString("\nscan ")
	r.(core.RegionScanner).ScanRegion(region, step)
	for _, p := range probes {
		slot, ok := r.Lookup(p)
		fmt.Fprintf(&out, "\nlookup %v %d %v", p, slot, ok)
	}
	return out.String()
}

// TestColdLoadReadsInPlace: for every kind under None and DeltaVarint, a
// fragment loaded through OpenAt answers exactly as its Decoded copy
// opened off its word boundaries (the copying path), and on a
// little-endian host the loaded index's pos and crd vectors lie inside
// the buffer they were decoded into — the section buffer itself under
// None — as do the values whenever the stored payload is 1 (mod 8)
// bytes long, which it is under None for every kind but BCOO.
func TestColdLoadReadsInPlace(t *testing.T) {
	littleEndian := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	shape := tensor.Shape{12, 10, 9}
	rng := rand.New(rand.NewSource(5))
	c := tensor.NewCoords(3, 0)
	seen := map[[3]uint64]bool{}
	for c.Len() < 200 {
		p := [3]uint64{uint64(rng.Intn(12)), uint64(rng.Intn(10)), uint64(rng.Intn(9))}
		if !seen[p] {
			seen[p] = true
			c.Append(p[:]...)
		}
	}
	bbox := tensor.BBox{Min: []uint64{0, 0, 0}, Max: []uint64{11, 9, 8}}
	probes := [][]uint64{{11, 9, 8}, {0, 0, 0}, {5, 5, 5}}
	for i := 0; i < c.Len(); i += 4 {
		probes = append(probes, slices.Clone(c.At(i)))
	}
	region := tensor.Region{Start: []uint64{3, 2, 1}, Size: []uint64{6, 5, 6}}

	formats := core.Registered()
	if len(formats) != 7 {
		t.Fatalf("%d registered formats, want 7", len(formats))
	}
	for _, format := range formats {
		built, err := format.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]float64, c.Len())
		for i := range values {
			slot := i
			if built.Perm != nil {
				slot = built.Perm[i]
			}
			values[slot] = float64(i) + 0.25
		}
		for _, codec := range []compress.ID{compress.None, compress.DeltaVarint} {
			t.Run(fmt.Sprintf("%v/codec%d", format.Kind(), codec), func(t *testing.T) {
				f := &Fragment{Payload: built.Payload, Values: values}
				f.Kind, f.Codec, f.Shape, f.NNZ, f.BBox = format.Kind(), codec, shape, uint64(c.Len()), bbox
				data, err := Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				l, err := OpenAt(bytes.NewReader(data), int64(len(data)))
				if err != nil {
					t.Fatal(err)
				}
				payload, err := l.Payload()
				if err != nil {
					t.Fatal(err)
				}
				vals := l.Values()
				r, err := format.Open(payload, shape)
				if err != nil {
					t.Fatal(err)
				}

				decoded, err := Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				off := make([]byte, len(decoded.Payload)+1)[1:]
				copy(off, decoded.Payload)
				ref, err := format.Open(off, shape)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := answers(r, vals, probes, region), answers(ref, decoded.Values, probes, region); got != want {
					t.Fatalf("loaded fragment answers\n%s\nits decoded copy\n%s", got, want)
				}

				if !littleEndian {
					return
				}
				home := payload
				if codec == compress.None {
					home = l.rawPayload
				} else if sliceAddr(home)%8 != 0 {
					home = nil // a decoder's buffer off its word boundary is read by copy
				}
				x := r.(interface { // *core.Index, embedded by GCS and CSF
					Decl() core.Decl
					Pos(int) []uint64
					Crd(int) []uint64
				})
				for lv := range x.Decl().Levels {
					for name, v := range map[string][]uint64{"pos": x.Pos(lv), "crd": x.Crd(lv)} {
						if len(v) > 0 && home != nil && !lies(v, 8*len(v), home) {
							t.Errorf("level %d %s (%d words) is a copy, not a view of the payload", lv, name, len(v))
						}
					}
				}
				aligned := l.Stored.Payload%8 == 1
				if codec == compress.None && format.Kind() != core.BCOO && !aligned {
					t.Errorf("stored payload of %d bytes leaves the values off their word boundary", l.Stored.Payload)
				}
				if len(vals) > 0 && lies(vals, 8*len(vals), l.rawValues) != aligned {
					t.Errorf("values alias the section %v, want %v (stored payload %d bytes)", !aligned, aligned, l.Stored.Payload)
				}
			})
		}
	}
}
