package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// requireSameExport asserts two (coords, values) exports are identical:
// same points in the same order, bitwise-equal values.
func requireSameExport(t *testing.T, label string, ac *tensor.Coords, av []float64, bc *tensor.Coords, bv []float64) {
	t.Helper()
	if ac.Len() != bc.Len() {
		t.Fatalf("%s: %d points vs %d", label, ac.Len(), bc.Len())
	}
	for i, n := 0, ac.Len(); i < n; i++ {
		pa, pb := ac.At(i), bc.At(i)
		for d := range pa {
			if pa[d] != pb[d] {
				t.Fatalf("%s: point %d is %v vs %v", label, i, pa, pb)
			}
		}
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			t.Fatalf("%s: value %d is %x vs %x", label, i,
				math.Float64bits(av[i]), math.Float64bits(bv[i]))
		}
	}
}

// TestConvertStreamedDifferential: the streaming conversion's
// destination exports exactly the source's live contents — every source
// kind to every destination kind, with a chunk small enough to force
// many fragments and the default single-chunk-per-wave path.
func TestConvertStreamedDifferential(t *testing.T) {
	shape := tensor.Shape{16, 12, 10}
	kinds := pushKinds()
	for _, src := range kinds {
		st := messyStore(t, src, shape, 311)
		wantC, wantV, err := st.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, dstKind := range kinds {
			for _, chunk := range []int{0, 37} { // 0 → DefaultConvertChunk (single chunk); 37 forces many
				dst, rep, err := Convert(context.Background(), st, newSim(t), "dst", dstKind,
					ConvertConfig{ChunkPoints: chunk, Workers: 2})
				if err != nil {
					t.Fatalf("%v→%v chunk=%d: %v", src, dstKind, chunk, err)
				}
				gotC, gotV, err := dst.ExportAll()
				if err != nil {
					t.Fatal(err)
				}
				requireSameExport(t, src.String()+"→"+dstKind.String(), gotC, gotV, wantC, wantV)
				if rep.Points != int64(wantC.Len()) {
					t.Fatalf("%v→%v: report says %d points, want %d", src, dstKind, rep.Points, wantC.Len())
				}
				wantChunks := 1
				if chunk > 0 {
					wantChunks = (wantC.Len() + chunk - 1) / chunk
				}
				if wantC.Len() == 0 {
					wantChunks = 0
				}
				if rep.Chunks != wantChunks {
					t.Fatalf("%v→%v chunk=%d: %d chunks for %d points, want %d",
						src, dstKind, chunk, rep.Chunks, wantC.Len(), wantChunks)
				}
				if dst.Fragments() != wantChunks {
					t.Fatalf("%v→%v chunk=%d: destination has %d fragments, want %d",
						src, dstKind, chunk, dst.Fragments(), wantChunks)
				}
				if rep.PeakChunkBytes == 0 && wantC.Len() > 0 {
					t.Fatal("peak chunk bytes unreported")
				}
				if chunk > 0 {
					// The bound the knob promises: no chunk ever exceeded
					// ChunkPoints points (dims+1 words of 8 bytes each).
					if max := int64(chunk * 8 * (shape.Dims() + 1)); rep.PeakChunkBytes > max {
						t.Fatalf("peak chunk %d bytes exceeds the %d-point bound (%d)",
							rep.PeakChunkBytes, chunk, max)
					}
				}
				if err := dst.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestConvertStreamedDeterministic: same source snapshot, same config →
// byte-identical destination stores, one fragment per chunk. The small
// chunk cuts more chunks than a tile's default compaction threshold: a
// flat destination is not compacted behind the conversion's back.
func TestConvertStreamedDeterministic(t *testing.T) {
	for _, chunk := range []int{50, 4} {
		testConvertStreamedDeterministic(t, chunk)
	}
}

func testConvertStreamedDeterministic(t *testing.T, chunk int) {
	st := messyStore(t, core.GCSR, tensor.Shape{16, 12, 10}, 47)
	files := func() map[string][]byte {
		fs := newSim(t)
		dst, rep, err := Convert(context.Background(), st, fs, "d", core.CSF, ConvertConfig{ChunkPoints: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if chunk == 4 && rep.Chunks < defaultCompactAt {
			t.Fatalf("chunk=%d cut %d chunks, want at least %d", chunk, rep.Chunks, defaultCompactAt)
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		if dst.Fragments() != rep.Chunks {
			t.Fatalf("chunk=%d: destination has %d fragments for %d chunks", chunk, dst.Fragments(), rep.Chunks)
		}
		names, err := fs.List("d")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, n := range names { // List returns full names
			b, err := fs.ReadFile(n)
			if err != nil {
				t.Fatal(err)
			}
			out[n] = b
		}
		return out
	}
	a, b := files(), files()
	if len(a) != len(b) {
		t.Fatalf("runs produced %d vs %d files", len(a), len(b))
	}
	for n, ab := range a {
		bb, ok := b[n]
		if !ok {
			t.Fatalf("second run missing %s", n)
		}
		if string(ab) != string(bb) {
			t.Fatalf("chunk=%d: file %s differs between identical runs", chunk, n)
		}
	}
}

// TestConvertClosesDestinationOnError: when the streaming write fails
// mid-conversion, Convert returns the error AND closes the destination,
// leaving its committed prefix a valid, reopenable store — the
// destination is never leaked half-open.
func TestConvertClosesDestinationOnError(t *testing.T) {
	src := messyStore(t, core.Linear, tensor.Shape{16, 12, 10}, 13)

	for failAfter := 1; failAfter < 40; failAfter += 3 {
		fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
		fs.FailAfter = failAfter
		dst, _, err := Convert(context.Background(), src, fs, "dst", core.CSF, ConvertConfig{ChunkPoints: 29})
		fs.FailAfter = -1
		if err == nil {
			// The fault landed after the conversion finished (or never
			// fired); the destination must be complete.
			gotC, gotV, err := dst.ExportAll()
			if err != nil {
				t.Fatalf("failAfter=%d: export after clean convert: %v", failAfter, err)
			}
			wantC, wantV, err := src.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			requireSameExport(t, "clean convert", gotC, gotV, wantC, wantV)
			continue
		}
		if dst != nil {
			t.Fatalf("failAfter=%d: error return leaked an open destination", failAfter)
		}
		// The error path closed (checkpointed) the destination: whatever
		// prefix committed must reopen as a valid store.
		if _, statErr := fs.ReadFile("dst/" + manifestName); statErr != nil {
			continue // Create itself failed; nothing on disk to validate
		}
		re, err := Open(fs, "dst")
		if err != nil {
			t.Fatalf("failAfter=%d: failed conversion left an unopenable store: %v", failAfter, err)
		}
		if _, _, err := re.ExportAll(); err != nil {
			t.Fatalf("failAfter=%d: reopened destination cannot export: %v", failAfter, err)
		}
	}
}

// convertExportAll is the pre-streaming conversion path, kept as the
// baseline BenchmarkConvert measures the streaming pipeline against:
// materialize the whole tensor (ExportAll), then one giant Write.
func convertExportAll(src *Store, fs fsim.FS, prefix string, kind core.Kind, opts ...Option) (*Store, error) {
	coords, vals, err := src.ExportAll()
	if err != nil {
		return nil, err
	}
	dst, err := Create(fs, prefix, kind, src.Shape(), opts...)
	if err != nil {
		return nil, err
	}
	if coords.Len() > 0 {
		if _, err := dst.Write(coords, vals); err != nil {
			if cerr := dst.Close(); cerr != nil {
				err = fmt.Errorf("%w (closing destination: %v)", err, cerr)
			}
			return nil, err
		}
	}
	return dst, nil
}

// TestConvertRegressionWrapper: Convert with the default config
// matches the materializing path output-for-output.
func TestConvertRegressionWrapper(t *testing.T) {
	st := messyStore(t, core.COO, tensor.Shape{12, 10, 8}, 59)
	dst, _, err := Convert(context.Background(), st, newSim(t), "d", core.GCSC, ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := convertExportAll(st, newSim(t), "d2", core.GCSC)
	if err != nil {
		t.Fatal(err)
	}
	ac, av, err := dst.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	bc, bv, err := old.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameExport(t, "streaming vs materializing", ac, av, bc, bv)
}

// TestConvertLargeMultiWave drives enough points through a small chunk
// and worker budget that several waves flush, checking the committer
// ordering holds up.
func TestConvertLargeMultiWave(t *testing.T) {
	shape := tensor.Shape{64, 64}
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	c, vals := randomIntPoints(rng, shape, 3000)
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	dst, rep, err := Convert(context.Background(), st, newSim(t), "d", core.COOSorted,
		ConvertConfig{ChunkPoints: 128, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks < 20 {
		t.Fatalf("expected many chunks, got %d", rep.Chunks)
	}
	wantC, wantV, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	gotC, gotV, err := dst.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameExport(t, "multi-wave", gotC, gotV, wantC, wantV)
}

// cancelAfterFS cancels a context once its n-th fragment file is
// written, so a conversion is cut off partway through its waves.
type cancelAfterFS struct {
	fsim.FS
	n      int
	cancel context.CancelFunc
}

func (f *cancelAfterFS) WriteFile(name string, data []byte) error {
	if strings.Contains(name, "frag-") {
		if f.n--; f.n == 0 {
			f.cancel()
		}
	}
	return f.FS.WriteFile(name, data)
}

// TestConvertCancelled: cancelling the context partway through a
// multi-wave conversion (sized as TestConvertLargeMultiWave) stops it
// with context.Canceled, and the destination has been closed — its log
// folded into the checkpoint — holding exactly a committed prefix of
// whole chunks: the source's first k × ChunkPoints live cells in
// address order.
func TestConvertCancelled(t *testing.T) {
	shape := tensor.Shape{64, 64}
	st, err := Create(newSim(t), "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	c, vals := randomIntPoints(rng, shape, 3000)
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	const chunk = 128
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := &cancelAfterFS{FS: newSim(t), n: 6, cancel: cancel}
	dst, _, err := Convert(ctx, st, fs, "d", core.COOSorted, ConvertConfig{ChunkPoints: chunk, Workers: 4})
	if !errors.Is(err, context.Canceled) || dst != nil {
		t.Fatalf("cancelled convert: returned a store %t, err %v; want none and context.Canceled", dst != nil, err)
	}
	if _, err := fs.ReadFile("d/" + manifestLogName); err == nil {
		t.Fatal("the destination was not closed: its manifest log is still there")
	}
	re, err := Open(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	k := re.Fragments()
	wantC, wantV, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if k == 0 || k*chunk >= wantC.Len() {
		t.Fatalf("cancelled convert committed %d chunks of %d points; want a proper prefix", k, wantC.Len())
	}
	prefix, err := tensor.FromFlat(2, wantC.Flat()[:2*k*chunk])
	if err != nil {
		t.Fatal(err)
	}
	gotC, gotV, err := re.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameExport(t, "cancelled convert", gotC, gotV, prefix, wantV[:k*chunk])
}
