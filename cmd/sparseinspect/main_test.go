package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		r.Close()
		done <- buf.String()
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// writeFragment creates a real fragment file, in a closed store whose
// MANIFEST lists it, and returns its path.
func writeFragment(t *testing.T, kind core.Kind) string {
	t.Helper()
	dir := t.TempDir()
	fs, err := fsim.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(fs, "t", kind, tensor.Shape{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(3, 0)
	c.Append(1, 2, 3)
	c.Append(4, 5, 6)
	rep, err := st.Write(c, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, filepath.FromSlash(rep.Name))
}

func TestInspectHeader(t *testing.T) {
	path := writeFragment(t, core.Linear)
	out, err := capture(t, func() error { return inspect(path, false) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"organization: LINEAR", "shape:        8x8x8", "points:       2", "bbox:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestInspectPayloadCSF(t *testing.T) {
	path := writeFragment(t, core.CSF)
	out, err := capture(t, func() error { return inspect(path, true) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "index words") || !strings.Contains(out, "CSF levels") {
		t.Fatalf("payload dissection missing:\n%s", out)
	}
}

// TestInspectFilterSection: a fragment's filters are in the manifest
// only. The manifest dump prints the fragment's coordinate filter, one
// line per dimension, and its key filter's size; the fragment dump
// lists three sections and no filter.
func TestInspectFilterSection(t *testing.T) {
	path := writeFragment(t, core.Linear)
	out, err := capture(t, func() error { return inspect(path, false) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "filter") || strings.Count(out, "crc32=") != 3 {
		t.Fatalf("fragment dump shows a filter or other than three sections:\n%s", out)
	}
	out, err = capture(t, func() error { return inspect(filepath.Join(filepath.Dir(path), "MANIFEST"), false) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"filter:     65 bytes",
		"dim 0: bitmap bits=4      set=2      fill=0.500",
		"dim 1: bitmap bits=4      set=2      fill=0.500",
		"dim 2: bitmap bits=4      set=2      fill=0.500",
		"keys:       8 bytes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("manifest dump missing %q:\n%s", want, out)
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

func TestInspectManifestGolden(t *testing.T) {
	dir := t.TempDir()
	fs, err := fsim.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(fs, "t", core.Linear, tensor.Shape{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(3, 0)
	c.Append(1, 2, 3)
	c.Append(40, 50, 60)
	if _, err := st.Write(c, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	region, err := tensor.NewRegion(tensor.Shape{64, 64, 64}, []uint64{0, 0, 0}, []uint64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "t", "MANIFEST")
	out, err := capture(t, func() error { return inspect(manifest, false) })
	if err != nil {
		t.Fatal(err)
	}
	// The first line carries the temp path; the golden covers the rest.
	if i := strings.IndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	golden := filepath.Join("testdata", "manifest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("manifest dump differs from golden (run with -update to refresh):\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestInspectErrors(t *testing.T) {
	if err := inspect(filepath.Join(t.TempDir(), "missing"), false); err == nil {
		t.Error("missing file accepted")
	}
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("not a fragment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspect(junk, false); err == nil {
		t.Error("junk file accepted")
	}
}
