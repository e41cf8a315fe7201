package fragment

import (
	"bytes"
	"testing"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// FuzzDecode checks that no input makes the fragment decoder panic or
// hang, and that anything it accepts re-encodes to an equivalent
// fragment.
func FuzzDecode(f *testing.F) {
	good, err := Encode(sample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("SPAF"))
	f.Add(good[:len(good)/2])
	f.Add(fixture(f, "v1-linear.frag")) // a retired layout: must be refused, never parsed

	f.Fuzz(func(t *testing.T, data []byte) {
		frag, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted fragments must be internally consistent and
		// re-encodable.
		if uint64(len(frag.Values)) != frag.NNZ {
			t.Fatalf("accepted fragment with %d values for %d points", len(frag.Values), frag.NNZ)
		}
		if _, err := Encode(frag); err != nil {
			t.Fatalf("accepted fragment does not re-encode: %v", err)
		}
	})
}

// FuzzEncodeDecodeRoundTrip drives structured fragments of every
// registered organization through the codec and asserts
// decode∘encode∘decode is a fixed point.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{1, 2, 3}, 3)
	f.Add(uint8(6), uint8(2), []byte{}, 0)
	kinds := core.Registered()
	f.Fuzz(func(t *testing.T, kindSel, codecSel uint8, payload []byte, nnz int) {
		kind := kinds[int(kindSel)%len(kinds)].Kind()
		codec := compress.ID(codecSel % 3)
		if nnz < 0 {
			nnz = -nnz
		}
		nnz %= 64
		frag := &Fragment{Payload: payload, Values: make([]float64, nnz)}
		frag.Kind = kind
		frag.Codec = codec
		frag.Shape = tensor.Shape{32, 32}
		frag.NNZ = uint64(nnz)
		if nnz > 0 {
			frag.BBox = tensor.BBox{Min: []uint64{0, 0}, Max: []uint64{31, 31}}
			for i := range frag.Values {
				frag.Values[i] = float64(i) * 1.5
			}
		}
		data, err := Encode(frag)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if got.Kind != kind || got.NNZ != uint64(nnz) || string(got.Payload) != string(payload) {
			t.Fatal("round trip mismatch")
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode of decoded fragment: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decode∘encode is not a fixed point: re-encoded bytes differ")
		}
	})
}
