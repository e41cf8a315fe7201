package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// writeDataset creates a tiny dataset file for import.
func writeDataset(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.txt")
	content := "# shape: 16 16\n1 2 10\n3 4 20\n5 6 30\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestImportInfoLifecycle(t *testing.T) {
	ds := writeDataset(t)
	dir := filepath.Join(t.TempDir(), "store")
	out, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", ds, "-kind", "GCSR++"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "imported 3 points") {
		t.Fatalf("import output:\n%s", out)
	}
	out, err = capture(t, func() error { return runInfo([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GCSR++", "16x16", "live cells:   3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestConvertAndExport(t *testing.T) {
	ds := writeDataset(t)
	src := filepath.Join(t.TempDir(), "src")
	dst := filepath.Join(t.TempDir(), "dst")
	if _, err := capture(t, func() error {
		return runImport([]string{"-dir", src, "-in", ds, "-kind", "COO"})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return runConvert([]string{"-dir", src, "-out", dst, "-to", "CSF"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "converted COO") || !strings.Contains(out, "CSF") {
		t.Fatalf("convert output:\n%s", out)
	}
	if !strings.Contains(out, "streamed 3 points in 1 chunks") || !strings.Contains(out, "peak chunk") {
		t.Fatalf("convert output missing streaming report:\n%s", out)
	}

	// The pipeline knobs: a 1-point chunk splits 3 points into 3
	// destination fragments.
	chunked := filepath.Join(t.TempDir(), "chunked")
	out, err = capture(t, func() error {
		return runConvert([]string{"-dir", src, "-out", chunked, "-to", "LINEAR", "-chunk", "1", "-workers", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "streamed 3 points in 3 chunks") {
		t.Fatalf("chunked convert output:\n%s", out)
	}
	exported := filepath.Join(t.TempDir(), "dump.txt")
	if _, err := capture(t, func() error {
		return runExport([]string{"-dir", dst, "-o", exported})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# shape: 16 16", "1 2 10", "5 6 30"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("export missing %q:\n%s", want, data)
		}
	}
}

func TestMatrixMarketImportExport(t *testing.T) {
	mtx := filepath.Join(t.TempDir(), "m.mtx")
	content := "%%MatrixMarket matrix coordinate real symmetric\n4 4 2\n2 1 5\n3 3 9\n"
	if err := os.WriteFile(mtx, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	out, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", mtx, "-format", "mtx", "-kind", "CSF"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The symmetric entry expands: 3 points total.
	if !strings.Contains(out, "imported 3 points") {
		t.Fatalf("import output:\n%s", out)
	}
	exported := filepath.Join(t.TempDir(), "out.mtx")
	if _, err := capture(t, func() error {
		return runExport([]string{"-dir", dir, "-o", exported, "-format", "mtx"})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"%%MatrixMarket matrix coordinate real general", "4 4 3", "2 1 5", "1 2 5"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("export missing %q:\n%s", want, data)
		}
	}
}

func TestCompactCommand(t *testing.T) {
	ds := writeDataset(t)
	dir := filepath.Join(t.TempDir(), "store")
	// Two imports into the same store would need two writes; import
	// creates the store, so write a second fragment by importing into
	// the existing directory via a second dataset... simpler: import
	// once then compact (no-op path), still exercising the command.
	if _, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", ds, "-kind", "LINEAR"})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return runCompact([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fragments: 1 -> 1") {
		t.Fatalf("compact output:\n%s", out)
	}

	// Compaction keeps the organization the store was created with.
	out, err = capture(t, func() error { return runInfo([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "organization: LINEAR") {
		t.Fatalf("info after compact:\n%s", out)
	}
}

func TestDeleteCommand(t *testing.T) {
	ds := writeDataset(t)
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", ds, "-kind", "CSF"})
	}); err != nil {
		t.Fatal(err)
	}
	// Delete a region covering the first point (1,2).
	out, err := capture(t, func() error {
		return runDelete([]string{"-dir", dir, "-start", "0,0", "-size", "3,3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "appended tombstone record") {
		t.Fatalf("delete output:\n%s", out)
	}
	out, err = capture(t, func() error { return runInfo([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "live cells:   2") {
		t.Fatalf("info after delete:\n%s", out)
	}
	if err := runDelete([]string{"-dir", dir}); err == nil {
		t.Error("delete without region accepted")
	}
	if err := runDelete([]string{"-dir", dir, "-start", "90,0", "-size", "1,1"}); err == nil {
		t.Error("out-of-shape region accepted")
	}
}

func TestCommandErrors(t *testing.T) {
	if err := runInfo([]string{}); err == nil {
		t.Error("info without -dir accepted")
	}
	if err := runCompact([]string{}); err == nil {
		t.Error("compact without -dir accepted")
	}
	if err := runConvert([]string{"-dir", "x"}); err == nil {
		t.Error("convert without -out/-to accepted")
	}
	if err := runConvert([]string{"-dir", "x", "-out", "y", "-to", "BOGUS"}); err == nil {
		t.Error("convert to unknown kind accepted")
	}
	if err := runExport([]string{}); err == nil {
		t.Error("export without -dir accepted")
	}
	if err := runImport([]string{}); err == nil {
		t.Error("import without -dir accepted")
	}
	if err := runInfo([]string{"-dir", filepath.Join(os.TempDir(), "no-such-store-xyz")}); err == nil {
		t.Error("info on missing store accepted")
	}
	ds := writeDataset(t)
	if err := runImport([]string{"-dir", filepath.Join(os.TempDir(), "s"), "-in", ds,
		"-kind", "LINEAR", "-shape", "bad"}); err == nil {
		t.Error("bad shape override accepted")
	}
}

func TestImportDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.txt")
	content := "# shape: 8 8\n1 1 10\n2 2 20\n1 1 99\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	out, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", path, "-kind", "LINEAR", "-dedup"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "imported 2 points") {
		t.Fatalf("dedup import:\n%s", out)
	}
	exported := filepath.Join(t.TempDir(), "dump.txt")
	if _, err := capture(t, func() error {
		return runExport([]string{"-dir", dir, "-o", exported})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1 1 99") || strings.Contains(string(data), "1 1 10") {
		t.Fatalf("newest value must win:\n%s", data)
	}
}

// writeBigDataset produces a dataset large enough to split.
func writeBigDataset(t *testing.T, points int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "big.txt")
	var b strings.Builder
	b.WriteString("# shape: 64 64\n")
	for i := 0; i < points; i++ {
		fmt.Fprintf(&b, "%d %d %d\n", i/64, i%64, i+1)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestImportFragmentsAuto(t *testing.T) {
	ds := writeBigDataset(t, 500)
	dir := filepath.Join(t.TempDir(), "store")
	// 500 points is under the advisor's floor: auto resolves to one
	// fragment and the import still lands everything.
	out, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", ds, "-kind", "LINEAR", "-fragments", "auto"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "imported 500 points") {
		t.Fatalf("auto import output:\n%s", out)
	}
	if err := runImport([]string{"-dir", dir, "-in", ds, "-fragments", "bogus"}); err == nil {
		t.Error("bad -fragments value accepted")
	}
	if err := runImport([]string{"-dir", dir, "-in", ds, "-fragments", "0"}); err == nil {
		t.Error("-fragments=0 accepted")
	}
}

func TestImportChunkedTile(t *testing.T) {
	ds := writeBigDataset(t, 300)
	dir := filepath.Join(t.TempDir(), "store")
	out, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", ds, "-kind", "CSF",
			"-tile", "16,16", "-fragments", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "imported 300 points into chunked CSF store") {
		t.Fatalf("chunked import output:\n%s", out)
	}
	if !strings.Contains(out, "tiles") {
		t.Fatalf("chunked import output missing tile count:\n%s", out)
	}
	// Tile directories exist on disk under the store prefix.
	entries, err := os.ReadDir(filepath.Join(dir, "tensor"))
	if err != nil {
		t.Fatal(err)
	}
	var tiles int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "t-") {
			tiles++
		}
	}
	if tiles == 0 {
		t.Fatalf("no tile directories under %s/tensor", dir)
	}
	if err := runImport([]string{"-dir", filepath.Join(t.TempDir(), "x"), "-in", ds,
		"-tile", "bad"}); err == nil {
		t.Error("bad -tile value accepted")
	}
}

// TestTiledStoreLifecycle: one Open reads either layout, so the
// commands that open a store — info, compact, export, convert — take a
// store that import -tile made, and convert's result keeps every cell.
func TestTiledStoreLifecycle(t *testing.T) {
	ds := writeBigDataset(t, 300)
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", ds, "-kind", "CSF", "-tile", "16,16", "-fragments", "4"})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return runInfo([]string{"-dir", dir}) })
	if err != nil || !strings.Contains(out, "live cells:   300") {
		t.Fatalf("info on a tiled store (%v):\n%s", err, out)
	}
	out, err = capture(t, func() error { return runCompact([]string{"-dir", dir}) })
	if err != nil || !strings.Contains(out, "points:    300 -> 300") {
		t.Fatalf("compact on a tiled store (%v):\n%s", err, out)
	}
	exported := filepath.Join(t.TempDir(), "out.txt")
	if _, err := capture(t, func() error { return runExport([]string{"-dir", dir, "-o", exported}) }); err != nil {
		t.Fatalf("export on a tiled store: %v", err)
	}
	data, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n") - strings.Count(string(data), "#"); lines != 300 {
		t.Fatalf("export wrote %d points, want 300", lines)
	}
	conv := filepath.Join(t.TempDir(), "conv")
	if _, err := capture(t, func() error { return runConvert([]string{"-dir", dir, "-out", conv, "-to", "COO"}) }); err != nil {
		t.Fatalf("convert of a tiled store: %v", err)
	}
	out, err = capture(t, func() error { return runInfo([]string{"-dir", conv}) })
	if err != nil || !strings.Contains(out, "live cells:   300") {
		t.Fatalf("info on the converted store (%v):\n%s", err, out)
	}
}
