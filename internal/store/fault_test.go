package store

import (
	"math/rand"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// TestWriteFailurePaths injects a fault at every successive operation
// count and checks that Write either succeeds fully or fails cleanly —
// and that a store whose fragment write failed still answers reads from
// its previous state — under every store configuration (storeConfigs).
func TestWriteFailurePaths(t *testing.T) {
	eachStoreConfig(t, testWriteFailurePaths)
}

func testWriteFailurePaths(t *testing.T, opts []Option) {
	shape := tensor.Shape{8, 8}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)
	c.Append(3, 4)
	vals := []float64{1, 2}

	for failAfter := 0; failAfter < 8; failAfter++ {
		fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
		st, err := Create(fs, "t", core.Linear, shape, opts...)
		if err != nil {
			if failAfter == 0 {
				continue // Create's manifest write was the injected op
			}
			t.Fatalf("failAfter=%d: create: %v", failAfter, err)
		}
		baseOps := fs.Ops()
		fs.FailAfter = baseOps + failAfter
		_, werr := st.Write(c, vals)
		fs.FailAfter = -1 // disarm for verification reads

		if werr != nil {
			// The failed write must not corrupt the store: a fresh
			// handle opens the (possibly shorter) manifest fine.
			st2, err := Open(fs, "t", opts...)
			if err != nil {
				t.Fatalf("failAfter=%d: reopen after failed write: %v", failAfter, err)
			}
			if st2.Fragments() > 1 {
				t.Fatalf("failAfter=%d: failed write left %d fragments in manifest",
					failAfter, st2.Fragments())
			}
			continue
		}
		// Success: the data must be readable.
		got, found, _, err := readPoints(st, c)
		if err != nil {
			t.Fatalf("failAfter=%d: read: %v", failAfter, err)
		}
		for i := range vals {
			if !found[i] || got[i] != vals[i] {
				t.Fatalf("failAfter=%d: lost point %d", failAfter, i)
			}
		}
	}
}

// TestReadFailurePaths: a read that cannot fetch a fragment must error,
// not return partial data silently.
func TestReadFailurePaths(t *testing.T) {
	shape := tensor.Shape{8, 8}
	fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
	st, err := Create(fs, "t", core.CSF, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 1)
	if _, err := st.Write(c, []float64{1}); err != nil {
		t.Fatal(err)
	}
	c2 := tensor.NewCoords(2, 0)
	c2.Append(2, 2)
	if _, err := st.Write(c2, []float64{2}); err != nil {
		t.Fatal(err) // a second fragment so Compact has real work to do
	}
	fs.FailOn = "frag-"
	if _, _, err := readProbe(st, c); err == nil {
		t.Fatal("read with unreadable fragment succeeded")
	}
	region, _ := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{8, 8})
	if _, _, err := readRegion(st, region, StrategyScan); err == nil {
		t.Fatal("scan with unreadable fragment succeeded")
	}
	if _, _, err := st.ExportAll(); err == nil {
		t.Fatal("export with unreadable fragment succeeded")
	}
	if _, err := st.Compact(); err == nil {
		t.Fatal("compact with unreadable fragment succeeded")
	}
}

// TestCorruptFragmentDetected: flipping a byte in a stored fragment
// must surface as a checksum error on read.
func TestCorruptFragmentDetected(t *testing.T) {
	shape := tensor.Shape{8, 8}
	sim := fsim.NewPerlmutterSim()
	st, err := Create(sim, "t", core.GCSR, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(2, 3)
	rep, err := st.Write(c, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	data, err := sim.ReadFile(rep.Name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := sim.WriteFile(rep.Name, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readProbe(st, c); err == nil {
		t.Fatal("corrupt fragment read succeeded")
	}
}

// TestCompactFailureKeepsOldFragments: if the consolidation write
// fails, the original fragments must remain readable.
func TestCompactFailureKeepsOldFragments(t *testing.T) {
	shape := tensor.Shape{10, 10}
	rng := rand.New(rand.NewSource(3))
	fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
	st, err := Create(fs, "t", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	ref := newModel(t, shape)
	for i := 0; i < 3; i++ {
		coords, vals := randomPoints(rng, shape, 10)
		if _, err := st.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		ref.write(coords, vals)
	}
	// Fail the new fragment's write during compaction.
	fs.FailOn = "frag-000003"
	if _, err := st.Compact(); err == nil {
		t.Fatal("compact succeeded despite injected failure")
	}
	fs.FailOn = ""
	// All original data still present.
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if coords.Len() != len(ref.data) {
		t.Fatalf("after failed compact: %d cells, want %d", coords.Len(), len(ref.data))
	}
	for i := 0; i < coords.Len(); i++ {
		if ref.data[ref.lin.Linearize(coords.At(i))] != vals[i] {
			t.Fatalf("cell %v changed after failed compact", coords.At(i))
		}
	}
}
