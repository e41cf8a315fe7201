package fsim

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// testOpenBehavior checks the ranged-read contract every FS must honor.
func testOpenBehavior(t *testing.T, f FS) {
	t.Helper()
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.WriteFile("d/frag", data); err != nil {
		t.Fatal(err)
	}
	h, err := f.Open("d/frag")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", h.Size(), len(data))
	}
	// Interior range.
	buf := make([]byte, 512)
	if n, err := h.ReadAt(buf, 1000); err != nil || n != 512 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data[1000:1512]) {
		t.Fatal("interior range mismatch")
	}
	// Short read at the tail returns io.EOF with the partial data.
	n, err := h.ReadAt(buf, int64(len(data))-100)
	if n != 100 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d, %v, want 100, EOF", n, err)
	}
	if !bytes.Equal(buf[:100], data[len(data)-100:]) {
		t.Fatal("tail range mismatch")
	}
	// Past the end.
	if n, err := h.ReadAt(buf, int64(len(data))+5); n != 0 || err != io.EOF {
		t.Fatalf("past-end ReadAt = %d, %v", n, err)
	}
	// Negative offsets are errors.
	if _, err := h.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset succeeded")
	}
	// Missing file.
	if _, err := f.Open("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open(missing) = %v", err)
	}
}

func TestSimFSOpenBehavior(t *testing.T) {
	testOpenBehavior(t, NewPerlmutterSim())
}

func TestOSFSOpenBehavior(t *testing.T) {
	f, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testOpenBehavior(t, f)
}

// TestSimFSOpenCostPerRange pins the ranged cost model: Open charges
// one metadata latency and nothing else; each ReadAt charges pure
// transfer time for its own range. A header-sized read of a large file
// is therefore modeled orders of magnitude cheaper than ReadFile.
func TestSimFSOpenCostPerRange(t *testing.T) {
	f := NewPerlmutterSim()
	model := PerlmutterLustre()
	const size = 20 << 20
	if err := f.WriteFile("frag", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	f.TakeCost()

	h, err := f.Open("frag")
	if err != nil {
		t.Fatal(err)
	}
	c := f.TakeCost()
	if c.Meta != model.OpLatency || c.Read != 0 || c.Write != 0 {
		t.Fatalf("open cost = %+v, want Meta=OpLatency only", c)
	}
	if st := f.Stats(); st.MetaOps != 1 || st.ReadOps != 0 || st.BytesRead != 0 {
		t.Fatalf("stats after open = %+v", st)
	}

	// Header-sized range: pure transfer for 512 bytes, no latency.
	buf := make([]byte, 512)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	c = f.TakeCost()
	if c.Read != model.transferTime(512) || c.Meta != 0 {
		t.Fatalf("ranged cost = %+v, want Read=transferTime(512)", c)
	}
	if st := f.Stats(); st.ReadOps != 1 || st.BytesRead != 512 {
		t.Fatalf("stats after ranged read = %+v", st)
	}

	// The whole-file baseline costs the full transfer; a small range
	// must be far cheaper.
	if _, err := f.ReadFile("frag"); err != nil {
		t.Fatal(err)
	}
	full := f.TakeCost()
	if full.Read < 100*model.transferTime(512) {
		t.Fatalf("full read %v not ≫ header read %v", full.Read, model.transferTime(512))
	}
	h.Close()
}

// TestSimFSOpenSnapshot: a handle keeps the contents it was opened on,
// surviving overwrite and removal — like a POSIX fd on an unlinked
// file, which is what fragment immutability relies on.
func TestSimFSOpenSnapshot(t *testing.T) {
	f := NewPerlmutterSim()
	if err := f.WriteFile("x", []byte("old-contents")); err != nil {
		t.Fatal(err)
	}
	h, err := f.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := f.WriteFile("x", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("x"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "old-contents" {
		t.Fatalf("snapshot = %q", buf)
	}
}

// TestOSFSWriteFilePermissions: WriteFile goes through os.CreateTemp,
// which opens the scratch file 0600; the published file must still end
// up world-readable (0644).
func TestOSFSWriteFilePermissions(t *testing.T) {
	dir := t.TempDir()
	f, err := NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("a/frag", []byte("data")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "a", "frag"))
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("published file mode = %o, want 644", perm)
	}
}

// TestFaultFSOpenAndRangedReads: faults fire at the open itself and at
// each ranged read on an already-open handle.
func TestFaultFSOpenAndRangedReads(t *testing.T) {
	f := NewFaultFS(NewPerlmutterSim())
	if err := f.WriteFile("frag-1", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	// Open before arming; the handle is live when the fault arms.
	h, err := f.Open("frag-1")
	if err != nil {
		t.Fatal(err)
	}
	f.FailOn = "frag-"
	if _, err := f.Open("frag-1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed Open = %v, want ErrInjected", err)
	}
	buf := make([]byte, 10)
	if _, err := h.ReadAt(buf, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed ReadAt = %v, want ErrInjected", err)
	}
	if got := f.Injected(); got != 2 {
		t.Fatalf("Injected = %d, want 2", got)
	}
	f.FailOn = ""
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatalf("disarmed ReadAt = %v", err)
	}
	h.Close()
}

// TestOSFSHandleOutlivesRemove: an open handle keeps reading the file
// after Remove, which the store's deferred removal of retired fragments
// relies on.
func TestOSFSHandleOutlivesRemove(t *testing.T) {
	f, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("x", []byte("contents")); err != nil {
		t.Fatal(err)
	}
	h, err := f.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("x"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if n, err := h.ReadAt(buf, 0); n != 8 || err != io.EOF || string(buf[:n]) != "contents" {
		t.Fatalf("ReadAt after Remove = %d %q %v, want 8 \"contents\" EOF", n, buf[:n], err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOSFSCloseReleasesDescriptor: open, read and close cycles leave the
// process's descriptor count where it was.
func TestOSFSCloseReleasesDescriptor(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	f, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("x", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	before := fds()
	buf := make([]byte, 101)
	for i := 0; i < 1000; i++ {
		h, err := f.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := h.ReadAt(buf, 0); n != 100 || err != io.EOF {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after != before {
		t.Fatalf("%d descriptors open after 1000 open/read/close cycles, %d before", after, before)
	}
}
