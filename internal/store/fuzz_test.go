package store

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fragment"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// FuzzOpenManifest feeds arbitrary bytes to the manifest parser: Open
// must reject them as corrupt (typed: fragment.ErrCorrupt, never
// ErrNotFound — the file is there) or accept them without panicking,
// and anything accepted must behave (stats, empty reads) without
// panicking either. Its bit-flip arm then flips one bit (chosen by the
// input's CRC) of the checkpoint the accepted store left — SMN3,
// whether the input was SMN3 or an SMN2 that Open folded — and
// requires ErrCorrupt.
func FuzzOpenManifest(f *testing.F) {
	// Seed with a real manifest, including a tombstone entry.
	sim := fsim.NewPerlmutterSim()
	st, err := Create(sim, "seed", core.GCSR, tensor.Shape{8, 8})
	if err != nil {
		f.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)
	if _, err := st.Write(c, []float64{1}); err != nil {
		f.Fatal(err)
	}
	region, err := tensor.NewRegion(tensor.Shape{8, 8}, []uint64{0, 0}, []uint64{2, 2})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		f.Fatal(err)
	}
	manifest, err := sim.ReadFile("seed/MANIFEST")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest)
	f.Add([]byte{})
	f.Add(manifest[:10])
	mangled := append([]byte(nil), manifest...)
	mangled[len(mangled)/2] ^= 0x0F
	f.Add(mangled)
	f.Add(append([]byte("SMN1"), manifest[4:]...)) // a retired format: refused by name
	// An SMN3 checkpoint with several keyed fragments, a tombstone and
	// a checkpoint-folded log; and an SMN2 one, which opens and folds.
	multi := fsim.NewPerlmutterSim()
	ms, err := Create(multi, "seed", core.CSF, tensor.Shape{16, 16})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		c := tensor.NewCoords(2, 0)
		c.Append(i, 2*i)
		c.Append(15-i, i)
		if _, err := ms.Write(c, []float64{float64(i), -float64(i)}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := ms.DeleteRegion(region); err != nil {
		f.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		f.Fatal(err)
	}
	smn3, err := multi.ReadFile("seed/MANIFEST")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smn3)
	smn2, err := os.ReadFile(filepath.Join("testdata", "smn2", "MANIFEST"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smn2)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFS := fsim.NewPerlmutterSim()
		if err := fuzzFS.WriteFile("x/MANIFEST", data); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(fuzzFS, "x")
		if err != nil {
			if !errors.Is(err, fragment.ErrCorrupt) || errors.Is(err, ErrNotFound) {
				t.Fatalf("Open rejected a present manifest with %v, want ErrCorrupt", err)
			}
			return
		}
		// Whatever was accepted must answer structural queries safely.
		_ = opened.Stats()
		_ = opened.TotalBytes()
		probe := tensor.NewCoords(opened.Shape().Dims(), 0)
		// Fragments referenced by a corrupt manifest are missing from
		// the FS; reads may error but must not panic.
		_, _, _ = readProbe(opened, probe)

		ckpt, err := fuzzFS.ReadFile("x/MANIFEST")
		if err != nil {
			t.Fatal(err)
		}
		bit := crc32.ChecksumIEEE(data) % uint32(8*len(ckpt))
		ckpt[bit/8] ^= 1 << (bit % 8)
		if err := fuzzFS.WriteFile("x/MANIFEST", ckpt); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(fuzzFS, "x"); !errors.Is(err, fragment.ErrCorrupt) {
			t.Fatalf("Open accepted a checkpoint with bit %d flipped: %v", bit, err)
		}
	})
}
