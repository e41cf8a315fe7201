package fragment

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"sparseart/internal/compress"
	"sparseart/internal/filter"
	"sparseart/internal/tensor"
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

// TestV3FilterRoundTrip: a fragment with a filter survives encode →
// lazy open; the filter section loads on demand only, is checksummed,
// and reproduces the builder's bytes.
func TestV3FilterRoundTrip(t *testing.T) {
	f := sample()
	c := tensor.NewCoords(2, 0)
	c.Append(0, 1)
	c.Append(3, 4)
	c.Append(5, 7)
	f.Filter = filter.Build(c)
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}

	src := newCountingReaderAt(data)
	l, err := OpenAt(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if l.Stored.Filter == 0 {
		t.Fatal("filter section missing from header")
	}
	reads := src.reads
	filt, err := l.Filter()
	if err != nil {
		t.Fatal(err)
	}
	if src.reads != reads+1 {
		t.Errorf("Filter() cost %d reads, want 1", src.reads-reads)
	}
	if filt == nil || !bytes.Equal(filt.Encode(), f.Filter.Encode()) {
		t.Fatal("decoded filter differs from built filter")
	}
	if _, err := l.Filter(); err != nil || src.reads != reads+1 {
		t.Error("second Filter() call touched the source")
	}
	secs := l.Sections()
	if len(secs) != 4 || secs[3].Name != "filter" {
		t.Fatalf("Sections() = %+v, want trailing filter entry", secs)
	}

	// Corrupt the filter section: header still opens, Filter() fails.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	lb, err := OpenAt(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("filter corruption broke the header open: %v", err)
	}
	if _, err := lb.Filter(); err == nil {
		t.Fatal("corrupt filter section accepted")
	}
}
