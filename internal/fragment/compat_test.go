package fragment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
	// Version, Bytes and the Stored sizes are decode outputs; every
	// other field must be sample()'s.
	orig := sample()
	orig.Version, orig.Bytes, orig.Stored = frag.Version, frag.Bytes, frag.Stored
	if !reflect.DeepEqual(frag, orig) {
		t.Fatalf("fixture decodes to %+v, want %+v", frag, orig)
	}
	if frag.Version != version || frag.Bytes != int64(len(want)) {
		t.Fatalf("fixture header reports version %d, %d bytes", frag.Version, frag.Bytes)
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
