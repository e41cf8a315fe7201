package fragment

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// countingReaderAt counts ranged reads against an in-memory buffer.
type countingReaderAt struct {
	r     *bytes.Reader
	reads int
	bytes int64
}

func newCountingReaderAt(b []byte) *countingReaderAt {
	return &countingReaderAt{r: bytes.NewReader(b)}
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.reads++
	c.bytes += int64(n)
	return n, err
}

// bulky returns a fragment whose payload+values dwarf the header, so
// header-only opens are distinguishable by byte counts.
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

// TestOpenAtHeaderOnly: opening a fragment must cost one small ranged
// read; the payload/values sections transfer only on demand.
func TestOpenAtHeaderOnly(t *testing.T) {
	f, data := bulky(t)
	src := newCountingReaderAt(data)
	l, err := OpenAt(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if src.reads != 1 {
		t.Errorf("OpenAt issued %d reads, want 1", src.reads)
	}
	if src.bytes > openReadSize {
		t.Errorf("OpenAt transferred %d bytes, want <= %d", src.bytes, openReadSize)
	}
	if l.Kind != f.Kind || l.NNZ != f.NNZ || !l.Shape.Equal(f.Shape) {
		t.Fatalf("header mismatch: %+v", l.Header)
	}
	if l.Bytes != int64(len(data)) {
		t.Errorf("Bytes = %d, want %d", l.Bytes, len(data))
	}

	if err := l.LoadSections(); err != nil {
		t.Fatal(err)
	}
	if src.reads != 2 {
		t.Errorf("LoadSections issued %d extra reads, want 1", src.reads-1)
	}
	if l.BytesRead() != src.bytes {
		t.Errorf("BytesRead = %d, source saw %d", l.BytesRead(), src.bytes)
	}

	before := src.reads
	payload, err := l.Payload()
	if err != nil {
		t.Fatal(err)
	}
	values, err := l.Values()
	if err != nil {
		t.Fatal(err)
	}
	if src.reads != before {
		t.Error("Payload/Values after LoadSections touched the source")
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

// TestLazySectionCorruption: a flipped byte in a lazy section must be
// caught when that section loads, while the header stays readable.
func TestLazySectionCorruption(t *testing.T) {
	_, data := bulky(t)
	// Payload section starts right after the header section.
	hdrLen := int64(14 + 24*2)
	payloadStart := preambleSize + hdrLen
	for _, off := range []int64{payloadStart + 10, int64(len(data)) - 4} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		l, err := OpenAt(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatalf("flip at %d broke the header open: %v", off, err)
		}
		if err := l.LoadSections(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: LoadSections err = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestLazyConcurrent hammers one Lazy from many goroutines; run with
// -race in CI.
func TestLazyConcurrent(t *testing.T) {
	f, data := bulky(t)
	l, err := OpenAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := l.Payload()
			if err != nil || !bytes.Equal(p, f.Payload) {
				t.Error("concurrent payload mismatch")
			}
			v, err := l.Values()
			if err != nil || len(v) != len(f.Values) {
				t.Error("concurrent values mismatch")
			}
		}()
	}
	wg.Wait()
}
