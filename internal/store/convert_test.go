package store

import (
	"fmt"
	"math"
	"math/rand"
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
				dst, rep, err := ConvertStreamed(st, newSim(t), "dst", dstKind,
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
// byte-identical destination stores.
func TestConvertStreamedDeterministic(t *testing.T) {
	st := messyStore(t, core.GCSR, tensor.Shape{16, 12, 10}, 47)
	files := func() map[string][]byte {
		fs := newSim(t)
		dst, _, err := ConvertStreamed(st, fs, "d", core.CSF, ConvertConfig{ChunkPoints: 50})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
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
			t.Fatalf("file %s differs between identical runs", n)
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
		dst, _, err := ConvertStreamed(src, fs, "dst", core.CSF, ConvertConfig{ChunkPoints: 29})
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

// TestConvertRegressionWrapper: the plain Convert API still works and
// matches the old materializing path output-for-output.
func TestConvertRegressionWrapper(t *testing.T) {
	st := messyStore(t, core.COO, tensor.Shape{12, 10, 8}, 59)
	dst, err := Convert(st, newSim(t), "d", core.GCSC)
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
	dst, rep, err := ConvertStreamed(st, newSim(t), "d", core.COOSorted,
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
