package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// TestCheckpointBitFlipsAreCorrupt: SMN3 ends in a CRC32 of every byte
// before it, so each single-bit flip of a fresh checkpoint — in a
// bounding box, a name, a filter or the magic — is refused as
// fragment.ErrCorrupt, by Open and by DecodeManifestInfo alike, and the
// intact bytes still open.
func TestCheckpointBitFlipsAreCorrupt(t *testing.T) {
	fs := newSim(t)
	if err := fixtureOps(t, fs, core.CSF, true, false).Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeManifestInfo(flipped); !errors.Is(err, fragment.ErrCorrupt) {
			t.Fatalf("bit %d of %d flipped: DecodeManifestInfo = %v, want ErrCorrupt", bit, 8*len(data), err)
		}
		if err := fs.WriteFile("t/"+manifestName, flipped); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(fs, "t"); !errors.Is(err, fragment.ErrCorrupt) {
			t.Fatalf("bit %d of %d flipped: Open = %v, want ErrCorrupt", bit, 8*len(data), err)
		}
	}
	if err := fs.WriteFile("t/"+manifestName, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "t"); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
}

// loadFixture copies testdata/<dir> into a fresh simulated store "t".
func loadFixture(t *testing.T, dir string) *fsim.SimFS {
	t.Helper()
	fs := newSim(t)
	entries, err := os.ReadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata", dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("t/"+e.Name(), b); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// requireCheckpointMagic asserts the store's MANIFEST starts with magic.
func requireCheckpointMagic(t *testing.T, fs fsim.FS, magic string) {
	t.Helper()
	data, err := fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4 || string(data[:4]) != magic {
		t.Fatalf("checkpoint starts %q, want %q", data[:min(4, len(data))], magic)
	}
}

// TestSMN2StoreUpgradesOnOpen opens the two older-store fixtures — an
// SMN2 checkpoint with its log, and the mixed-kinds crash remnant —
// writes one batch, and reopens from checkpoint plus log. Open folds
// the SMN2 checkpoint to SMN3 before returning, so the batch's
// key-carrying record never sits beside an SMN2 checkpoint; the older
// fragments keep no key filter and are read through their coordinate
// filters; every point and region read matches a map oracle of the
// fixture's history plus the batch.
func TestSMN2StoreUpgradesOnOpen(t *testing.T) {
	for _, fx := range []struct {
		dir  string
		kind core.Kind
		tail bool
	}{{"smn2", core.CSF, true}, {"mixed-kinds", core.COO, false}} {
		t.Run(fx.dir, func(t *testing.T) {
			fs := loadFixture(t, fx.dir)
			requireCheckpointMagic(t, fs, "SMN2")
			st, err := Open(fs, "t")
			if err != nil {
				t.Fatal(err)
			}
			requireCheckpointMagic(t, fs, "SMN3")
			if _, err := fs.ReadFile("t/" + manifestLogName); err == nil {
				t.Fatal("the SMN2 log survived the fold")
			}
			old := len(only(st).currentFrags())
			for _, fr := range only(st).currentFrags() {
				if fr.keys != nil {
					t.Fatalf("%s has a key filter an SMN2 store never wrote", fr.name)
				}
			}

			wantC, wantV, err := fixtureOps(t, newSim(t), fx.kind, fx.tail, false).ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[uint64]float64{}
			for i := range wantV {
				oracle[only(st).lin.Linearize(wantC.At(i))] = wantV[i]
			}
			b := tensor.NewCoords(2, 0)
			b.AppendFlat([]uint64{3, 4, 9, 9, 0, 15, 15, 15, 1, 1})
			vals := []float64{100, 101, 102, 103, 104}
			if _, err := st.Write(b, vals); err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				oracle[only(st).lin.Linearize(b.At(i))] = v
			}

			re, err := Open(fs, "t")
			if err != nil {
				t.Fatal(err)
			}
			requireCheckpointMagic(t, fs, "SMN3")
			frags := only(re).currentFrags()
			if only(re).logRecords != 1 || len(frags) != old+1 || frags[old].keys == nil {
				t.Fatalf("reopened with %d log records and %d fragments (newest keyed %v), want 1, %d, true",
					only(re).logRecords, len(frags), frags[len(frags)-1].keys != nil, old+1)
			}
			requireStoreMatchesOracle(t, re, oracle)
		})
	}
}

// TestKeylessFragmentsAnswerProbesByBox: a fragment an SMN2 checkpoint
// listed has no key filter, so a probe inside its bounding box reads it
// — even one its coordinate filter would dismiss — and a probe outside
// every box reads nothing; both answer exactly.
func TestKeylessFragmentsAnswerProbesByBox(t *testing.T) {
	st, err := Open(loadFixture(t, "smn2"), "t")
	if err != nil {
		t.Fatal(err)
	}
	// (5, 5) lies in the boxes of all three data fragments ([1 2]..[7 7],
	// [3 0]..[15 12] and [1 2]..[8 8]); none stores an x of 5.
	for _, tc := range []struct {
		pts           []uint64
		want          map[uint64]float64
		read, skipped int
	}{
		{[]uint64{5, 5}, map[uint64]float64{}, 3, 0},
		{[]uint64{3, 4}, map[uint64]float64{only(st).lin.Linearize([]uint64{3, 4}): 9}, 3, 0},
		// The probes' box overlaps three data fragments; no box holds a probe.
		{[]uint64{0, 0, 9, 14}, map[uint64]float64{}, 0, 3},
	} {
		probe := tensor.NewCoords(2, 0)
		probe.AppendFlat(tc.pts)
		res, rep, err := readProbe(st, probe)
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, fmt.Sprint("probe ", tc.pts), only(st).lin, res, tc.want)
		if rep.Fragments != tc.read || rep.FilterSkipped != tc.skipped {
			t.Fatalf("probe %v read %d fragments and skipped %d; want %d and %d", tc.pts, rep.Fragments, rep.FilterSkipped, tc.read, tc.skipped)
		}
	}
}

// TestWritesLeaveNoFilterSection: a fragment's filters live in its
// manifest record, so every fragment file WRITE leaves — by Write and by
// Compact — has the three sections header, payload and values.
func TestWritesLeaveNoFilterSection(t *testing.T) {
	fs := newSim(t)
	st := fixtureOps(t, fs, core.GCSR, true, false)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("t/")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if !strings.HasPrefix(path.Base(name), "frag-") {
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		l, err := fragment.OpenAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if secs := l.Sections(); len(secs) != 3 {
			t.Fatalf("%s has sections %+v, want header, payload, values", name, secs)
		}
		n++
	}
	if n == 0 {
		t.Fatalf("no fragment files among %v", names)
	}
}

// requireStoreMatchesOracle reads every cell of a 2-dim store one point
// read at a time, then the whole shape planned, forced to scan and as
// one probe of all cells (regionArms), against the oracle.
func requireStoreMatchesOracle(t *testing.T, st *Store, oracle map[uint64]float64) {
	t.Helper()
	shape := st.Shape()
	for x := uint64(0); x < shape[0]; x++ {
		for y := uint64(0); y < shape[1]; y++ {
			p := tensor.NewCoords(2, 0)
			p.Append(x, y)
			res, _, err := readProbe(st, p)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64]float64{}
			if v, ok := oracle[only(st).lin.Linearize([]uint64{x, y})]; ok {
				want[only(st).lin.Linearize([]uint64{x, y})] = v
			}
			requireOracle(t, "point read", only(st).lin, res, want)
		}
	}
	whole := tensor.Region{Start: []uint64{0, 0}, Size: shape}
	requireOracle(t, "region read", only(st).lin, regionArms(t, "region read", st, QueryRequest{Region: &whole, AsOf: AsOfLatest}), oracle)
}

// TestKeyFiltersHaveNoFalseNegatives: every stored point of every data
// fragment passes its fragment's key filter — and the point read's
// whole filter chain — after Write, after a batched WriteBatchContext,
// after a reopen that replays the log, after Compact, and after a
// reopen from the checkpoint, for every organization under every store
// configuration.
func TestKeyFiltersHaveNoFalseNegatives(t *testing.T) {
	shape := tensor.Shape{24, 20, 16}
	for _, f := range core.Registered() {
		kind := f.Kind()
		t.Run(kind.String(), func(t *testing.T) {
			eachStoreConfig(t, func(t *testing.T, opts []Option) {
				rng := rand.New(rand.NewSource(int64(kind) + 1))
				batch := func(n int) Batch {
					c := tensor.NewCoords(3, 0)
					vals := make([]float64, n)
					for i := range vals {
						c.Append(rng.Uint64()%shape[0], rng.Uint64()%shape[1], rng.Uint64()%shape[2])
						vals[i] = float64(i)
					}
					return Batch{Coords: c, Values: vals}
				}
				fs := newSim(t)
				st, err := Create(fs, "t", kind, shape, opts...)
				if err != nil {
					t.Fatal(err)
				}
				b := batch(150)
				if _, err := st.Write(b.Coords, b.Values); err != nil {
					t.Fatal(err)
				}
				requireKeysHold(t, "after Write", only(st))
				if _, err := st.WriteBatchContext(context.Background(), []Batch{batch(120), batch(90), batch(60)}, 2); err != nil {
					t.Fatal(err)
				}
				region, err := tensor.NewRegion(shape, []uint64{2, 3, 4}, []uint64{5, 6, 7})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.DeleteRegion(region); err != nil {
					t.Fatal(err)
				}
				settle(st)
				requireKeysHold(t, "after WriteBatchContext", only(st))
				re, err := Open(fs, "t", opts...)
				if err != nil {
					t.Fatal(err)
				}
				requireKeysHold(t, "after a reopen from the log", only(re))
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
				requireKeysHold(t, "after Compact", only(st))
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if re, err = Open(fs, "t", opts...); err != nil {
					t.Fatal(err)
				}
				requireKeysHold(t, "after a reopen from the checkpoint", only(re))
			})
		})
	}
}

// requireKeysHold walks every stored point of every data fragment of st
// and asks the fragment's key filter, then a one-point read's plan,
// about it.
func requireKeysHold(t *testing.T, label string, st *tile) {
	t.Helper()
	for _, fr := range st.currentFrags() {
		if fr.tomb || fr.nnz == 0 {
			continue
		}
		if fr.keys == nil {
			t.Fatalf("%s: %s carries no key filter", label, fr.name)
		}
		e, err := st.loadFragment(nil, fr, &ReadReport{})
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(0)
		scanFragment(e.Reader, nil, func(p []uint64, _ int) bool {
			n++
			if !fr.keys.MayContain(st.lin.Linearize(p)) {
				t.Fatalf("%s: %s's key filter refuses its stored point %v", label, fr.name, p)
			}
			probe := tensor.NewCoords(len(p), 1)
			probe.Append(p...)
			pl := readPlan{probe: probe}
			if !pl.mayHold(&fr, st.lin) {
				t.Fatalf("%s: a point read of %v skips %s, which stores it", label, p, fr.name)
			}
			return true
		})
		if n != fr.nnz {
			t.Fatalf("%s: %s walked %d points, holds %d", label, fr.name, n, fr.nnz)
		}
	}
}
