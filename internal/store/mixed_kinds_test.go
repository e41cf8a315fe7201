package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/store/fragcache"
	"sparseart/internal/tensor"
)

// TestMixedKindFixture opens testdata/mixed-kinds, a store whose
// fragments were built by two organizations. An earlier release could
// re-organize a store in place (compact it into another organization);
// the fixture is what that pass left when it crashed between appending
// the consolidated fragment's manifest-log record and writing the
// checkpoint that carried the new kind. It was written by running
// fixtureOps' history on a COO store, then that pass into CSF on a
// fault-injecting file system armed to fail the checkpoint: MANIFEST
// says COO and lists frag-000000, frag-000001 and the tombstone;
// MANIFEST.LOG holds frag-000003 (COO) and the consolidated
// frag-000004 (CSF).
//
// A store's organization is fixed at Create now, but such bytes may
// still be on disk, so a fragment opens by the kind its own header
// names (loadFragment). This test pins that dispatch: the live contents
// read back exactly, one probe opens fragments of both kinds, and a
// Compact folds everything into one fragment of the manifest's kind.
func TestMixedKindFixture(t *testing.T) {
	fs := newSim(t)
	dir := filepath.Join("testdata", "mixed-kinds")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("t/"+e.Name(), b); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(fs, "t")
	if err != nil {
		t.Fatalf("fixture failed to open: %v", err)
	}
	if st.Kind() != core.COO || st.Fragments() != 5 {
		t.Fatalf("fixture opened as %v with %d fragments, want COO with 5", st.Kind(), st.Fragments())
	}

	// The pre-crash contents: the same history on a fresh store.
	wantC, wantV, err := fixtureOps(t, newSim(t), core.COO, false, false).ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	gotC, gotV, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameExport(t, "mixed-kind fixture", gotC, gotV, wantC, wantV)

	// (3, 4) lies in frag-000000 (COO), frag-000001 (COO) and the
	// consolidated frag-000004 (CSF): the probe must open both kinds.
	probe := tensor.NewCoords(2, 0)
	probe.Append(3, 4)
	vals, found, rep, err := readPoints(st, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || vals[0] != 9 || rep.Fragments < 2 {
		t.Fatalf("probe (3,4) = %v (found %v) over %d fragments, want 9 over >= 2", vals[0], found[0], rep.Fragments)
	}
	for name, want := range map[string]core.Kind{"t/frag-000000": core.COO, "t/frag-000004": core.CSF} {
		e, err := st.cache.Get(name, func() (*fragcache.Entry, error) {
			return nil, fmt.Errorf("the probe did not open %s", name)
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.Header.Kind != want {
			t.Fatalf("%s opened as %v, want %v", name, e.Header.Kind, want)
		}
	}

	// Compact rewrites everything in the manifest's kind.
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Fragments() != 1 {
		t.Fatalf("compact left %d fragments", st.Fragments())
	}
	b, err := fs.ReadFile(only(st).currentFrags()[0].name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fragment.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Header.Kind != core.COO {
		t.Fatalf("compact wrote a %v fragment into a COO store", f.Header.Kind)
	}
	gotC, gotV, err = st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameExport(t, "mixed-kind fixture after compact", gotC, gotV, wantC, wantV)
}
