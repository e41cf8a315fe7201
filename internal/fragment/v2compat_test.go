package fragment

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"sparseart/internal/compress"
)

// encodeV2 reproduces the pre-filter sectioned encoder byte for byte:
// 48-byte preamble, three sections, no filter.
func encodeV2(t *testing.T, f *Fragment) []byte {
	t.Helper()
	const preambleV2 = 48
	header, err := encodeHeaderSection(f)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := compress.EncodeSection(f.Codec, f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, preambleV2+len(header)+len(payload)+8*len(f.Values))
	copy(out[preambleV2:], header)
	copy(out[preambleV2+len(header):], payload)
	values := out[preambleV2+len(header)+len(payload):]
	for i, v := range f.Values {
		binary.LittleEndian.PutUint64(values[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint16(out[4:], 2)
	binary.LittleEndian.PutUint16(out[6:], 0)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(header)))
	binary.LittleEndian.PutUint64(out[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[24:], uint64(len(values)))
	binary.LittleEndian.PutUint32(out[32:], crc32.ChecksumIEEE(header))
	binary.LittleEndian.PutUint32(out[36:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(out[40:], crc32.ChecksumIEEE(values))
	binary.LittleEndian.PutUint32(out[44:], crc32.ChecksumIEEE(out[:44]))
	return out
}

// TestV2Rejected: a well-formed pre-filter (version 2) file is an
// unsupported layout, refused by its version field before any section
// is trusted.
func TestV2Rejected(t *testing.T) {
	rejectsVersion(t, encodeV2(t, sample()), "2")
}
