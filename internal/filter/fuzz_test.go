package filter

import (
	"bytes"
	"testing"

	"sparseart/internal/tensor"
)

// FuzzDecode feeds arbitrary bytes to both filter decoders: neither may
// panic, and whatever one accepts re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)
	c.Append(3, 1<<40)
	f.Add(Build(c).Encode())
	lin, err := tensor.NewLinearizer(tensor.Shape{16, 16}, tensor.RowMajor)
	if err != nil {
		f.Fatal(err)
	}
	k := tensor.NewCoords(2, 0)
	for i := uint64(0); i < 9; i++ {
		k.Append(i, 15-i)
	}
	keys := BuildKeys(k, lin).Encode()
	f.Add(keys)
	f.Add(keys[:len(keys)-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if flt, err := Decode(data); err == nil && !bytes.Equal(flt.Encode(), data) {
			t.Fatal("Decode accepted bytes that do not re-encode to themselves")
		}
		if ks, err := DecodeKeys(data); err == nil {
			if !bytes.Equal(ks.Encode(), data) {
				t.Fatal("DecodeKeys accepted bytes that do not re-encode to themselves")
			}
			ks.MayContain(0)
		}
	})
}
