package fragment

import (
	"bytes"
	"errors"
	"testing"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// countingReaderAt counts ranged reads against an in-memory buffer.
type countingReaderAt struct {
	r     *bytes.Reader
	reads int
	asked int64 // bytes the reads asked for
	bytes int64 // bytes they returned
}

func newCountingReaderAt(b []byte) *countingReaderAt {
	return &countingReaderAt{r: bytes.NewReader(b)}
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.reads++
	c.asked += int64(len(p))
	c.bytes += int64(n)
	return n, err
}

// bulky returns a fragment whose payload+values dwarf the header.
func bulky(t *testing.T) (*Fragment, []byte) {
	t.Helper()
	f := sample()
	f.Payload = make([]byte, 8192)
	for i := range f.Payload {
		f.Payload[i] = byte(i * 7)
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, data
}

// TestOpenAtOneRead: opening a fragment is one ranged read of the whole
// file plus one byte, and decoding it afterwards touches the source no
// more.
func TestOpenAtOneRead(t *testing.T) {
	f, data := bulky(t)
	src := newCountingReaderAt(data)
	l, err := OpenAt(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if src.reads != 1 || src.asked != int64(len(data))+1 || src.bytes != int64(len(data)) {
		t.Errorf("OpenAt issued %d reads asking %d bytes and got %d, want 1 read asking %d and getting %d",
			src.reads, src.asked, src.bytes, len(data)+1, len(data))
	}
	if l.Kind != f.Kind || l.NNZ != f.NNZ || !l.Shape.Equal(f.Shape) {
		t.Fatalf("header mismatch: %+v", l.Header)
	}
	if l.Bytes != int64(len(data)) {
		t.Errorf("Bytes = %d, want %d", l.Bytes, len(data))
	}

	payload, err := l.Payload()
	if err != nil {
		t.Fatal(err)
	}
	values := l.Values()
	if src.reads != 1 {
		t.Error("Payload/Values touched the source")
	}
	if !bytes.Equal(payload, f.Payload) {
		t.Error("payload mismatch")
	}
	if len(values) != len(f.Values) {
		t.Fatalf("%d values, want %d", len(values), len(f.Values))
	}
	for i, v := range f.Values {
		if values[i] != v {
			t.Fatalf("values[%d] = %v, want %v", i, values[i], v)
		}
	}
}

// TestOpenAtRefusesWrongSize: a size one byte off the file's, either
// way, is refused as corrupt; the file alone would pass.
func TestOpenAtRefusesWrongSize(t *testing.T) {
	_, data := bulky(t)
	for _, size := range []int64{int64(len(data)) - 1, int64(len(data)) + 1, 0, preambleSize - 1} {
		if _, err := OpenAt(bytes.NewReader(data), size); !errors.Is(err, ErrCorrupt) {
			t.Errorf("size %d of a %d-byte file: err = %v, want ErrCorrupt", size, len(data), err)
		}
	}
	// The reader's own error, not a verdict on the bytes, when the read
	// itself fails.
	if _, err := OpenAt(failingReaderAt{}, int64(len(data))); !errors.Is(err, errRead) {
		t.Errorf("failing reader: err = %v, want its error", err)
	}
}

var errRead = errors.New("read failed")

type failingReaderAt struct{}

func (failingReaderAt) ReadAt([]byte, int64) (int, error) { return 0, errRead }

// TestOpenAtMatchesDecode across every codec and an empty fragment.
func TestOpenAtMatchesDecode(t *testing.T) {
	frags := []*Fragment{sample()}
	for _, c := range compress.All() {
		f := sample()
		f.Codec = c.ID()
		frags = append(frags, f)
	}
	empty := &Fragment{}
	empty.Kind = core.COO
	empty.Shape = tensor.Shape{4, 4}
	frags = append(frags, empty)
	tomb := &Fragment{Payload: []byte{9, 9, 9}}
	tomb.Kind = core.COO
	tomb.Shape = tensor.Shape{4, 4}
	tomb.Tombstone = true
	tomb.BBox = tensor.BBox{Min: []uint64{0, 0}, Max: []uint64{3, 3}}
	frags = append(frags, tomb)

	for i, f := range frags {
		data, err := Encode(f)
		if err != nil {
			t.Fatalf("frag %d: %v", i, err)
		}
		want, err := Decode(data)
		if err != nil {
			t.Fatalf("frag %d: %v", i, err)
		}
		l, err := OpenAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("frag %d: %v", i, err)
		}
		got, err := l.Materialize()
		if err != nil {
			t.Fatalf("frag %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.NNZ != want.NNZ || got.Tombstone != want.Tombstone ||
			!bytes.Equal(got.Payload, want.Payload) || len(got.Values) != len(want.Values) {
			t.Fatalf("frag %d: OpenAt/Decode disagree: %+v vs %+v", i, got.Header, want.Header)
		}
	}
}

// TestOpenAtSectionCorruption: a flipped bit in any section, or in the
// preamble, is refused by OpenAt itself.
func TestOpenAtSectionCorruption(t *testing.T) {
	_, data := bulky(t)
	hdrLen := int64(headerFixed + 24*2)
	payloadStart := preambleSize + hdrLen
	for _, off := range []int64{9, preambleSize + 3, payloadStart + 10, int64(len(data)) - 4} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if _, err := OpenAt(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}
