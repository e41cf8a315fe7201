package fragment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparseart/internal/core"
)

func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV3FixtureStable pins the on-disk layout: testdata/v3-linear.frag
// is Encode(sample()) as written by the commit before the v1/v2
// decoders were retired. Encode must keep producing exactly those
// bytes, and they must keep decoding to sample().
func TestV3FixtureStable(t *testing.T) {
	want := fixture(t, "v3-linear.frag")
	got, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode(sample()) drifted from the v3 fixture:\n got %x\nwant %x", got, want)
	}
	frag, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes and the Stored sizes are decode outputs; every other field
	// must be sample()'s.
	orig := sample()
	orig.Bytes, orig.Stored = frag.Bytes, frag.Stored
	if !reflect.DeepEqual(frag, orig) {
		t.Fatalf("fixture decodes to %+v, want %+v", frag, orig)
	}
	if frag.Bytes != int64(len(want)) {
		t.Fatalf("fixture header reports %d bytes", frag.Bytes)
	}
}

// rejectsVersion asserts both entry points refuse data as an
// unsupported layout version, naming the version found.
func rejectsVersion(t *testing.T, data []byte, ver string) {
	t.Helper()
	_, errOpen := OpenAt(bytes.NewReader(data), int64(len(data)))
	_, errDecode := Decode(data)
	for _, err := range []error{errOpen, errDecode} {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v, want ErrCorrupt", err)
		}
		if !strings.Contains(err.Error(), "version "+ver) {
			t.Fatalf("error %q does not name version %s", err, ver)
		}
	}
}

// TestV1FixtureRejected: testdata/v1-linear.frag was written by the
// original whole-file encoder. No store in that layout exists any more,
// so the file is a negative input: a typed rejection, not a decode.
func TestV1FixtureRejected(t *testing.T) {
	rejectsVersion(t, fixture(t, "v1-linear.frag"), "1")
}

// cutFilterSection returns data — a v3 file an earlier writer left with
// a trailing filter section — as Encode writes the same fragment: the
// section cut, the preamble's filter length and CRC (bytes 44–55)
// zeroed, and the preamble CRC (bytes 56–59) recomputed.
func cutFilterSection(data []byte) []byte {
	n := binary.LittleEndian.Uint64(data[44:])
	out := append([]byte(nil), data[:uint64(len(data))-n]...)
	clear(out[44:56])
	binary.LittleEndian.PutUint32(out[56:], crc32.ChecksumIEEE(out[:56]))
	return out
}

// TestEncodeWritesThreeSections: a fresh fragment — data, empty or
// tombstone — has exactly the header, payload and values sections, and
// its preamble records no filter section.
func TestEncodeWritesThreeSections(t *testing.T) {
	_, big := bulky(t)
	tomb := sample()
	tomb.NNZ, tomb.Values, tomb.Tombstone = 0, nil, true
	empty := sample()
	empty.NNZ, empty.Values = 0, nil
	for _, data := range [][]byte{fixture(t, "v3-linear.frag"), big, encode(t, tomb), encode(t, empty)} {
		l, err := OpenAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		secs := l.Sections()
		if len(secs) != 3 || secs[0].Name != "header" || secs[1].Name != "payload" || secs[2].Name != "values" {
			t.Fatalf("Sections() = %+v, want header, payload, values", secs)
		}
		if end := secs[2].Offset + secs[2].Len; end != int64(len(data)) {
			t.Fatalf("values section ends at %d of %d bytes", end, len(data))
		}
		if n, crc := binary.LittleEndian.Uint64(data[44:]), binary.LittleEndian.Uint32(data[52:]); n != 0 || crc != 0 {
			t.Fatalf("preamble records a %d-byte filter section (crc %#x)", n, crc)
		}
	}
}

func encode(t *testing.T, f *Fragment) []byte {
	t.Helper()
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLegacyFilterSectionOpensUnread: testdata/v3-filter-section.frag
// is a LINEAR fragment a store wrote when fragment files still carried
// the coordinate filter (the first fragment of
// internal/store/testdata/write-kinds/LINEAR at that time). It opens
// through OpenAt and Materialize to the same fragment as the file
// without its section, and Sections lists the section. The section's
// bytes are size-checked but never read: no ranged read is issued for
// them, corrupting them changes nothing, a file one byte short is
// corrupt, and re-encoding the decoded fragment gives the cut file.
func TestLegacyFilterSectionOpensUnread(t *testing.T) {
	legacy := fixture(t, "v3-filter-section.frag")
	cut := cutFilterSection(legacy)
	want, err := Decode(cut)
	if err != nil {
		t.Fatal(err)
	}
	if want.Kind != core.Linear || want.NNZ != 3 || !reflect.DeepEqual(want.Values, []float64{1.5, -2.25, 42}) {
		t.Fatalf("cut fixture decodes to %v, %d points, values %v", want.Kind, want.NNZ, want.Values)
	}
	corrupt := append([]byte(nil), legacy...)
	for i := len(cut); i < len(corrupt); i++ {
		corrupt[i] ^= 0xFF
	}
	for _, data := range [][]byte{legacy, corrupt} {
		src := newCountingReaderAt(data)
		l, err := OpenAt(src, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		secs := l.Sections()
		if len(secs) != 4 || secs[3].Name != "filter" || secs[3].Offset != int64(len(cut)) || secs[3].Offset+secs[3].Len != int64(len(data)) {
			t.Fatalf("Sections() = %+v, want the legacy filter section last", secs)
		}
		got, err := l.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if src.reads != 1 {
			t.Fatalf("opening cost %d reads, want 1 (the whole file)", src.reads)
		}
		want.Bytes = int64(len(data))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("legacy file decodes to %+v, want %+v", got, want)
		}
		if enc := encode(t, got); !bytes.Equal(enc, cut) {
			t.Fatalf("re-encoding the legacy file:\n got %x\nwant %x", enc, cut)
		}
	}
	if _, err := OpenAt(bytes.NewReader(legacy[:len(legacy)-1]), int64(len(legacy)-1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a file one byte short of its filter section opened: %v", err)
	}
}
