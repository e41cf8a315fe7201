package store

import (
	"errors"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// TestCompactToReorganizes: a re-organizing compaction preserves the
// logical contents exactly, switches the store's kind for subsequent
// writes, persists the new kind across reopen, and keeps a reader
// pinned on the pre-compaction epoch serving the old-kind fragments.
func TestCompactToReorganizes(t *testing.T) {
	shape := tensor.Shape{16, 12, 10}
	st := messyStore(t, core.COO, shape, 211)
	fs := st.fs
	wantC, wantV, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}

	// Pin the pre-compaction epoch: its old-kind fragments must stay
	// readable after the store's organization flips.
	pinned := st.acquireView()
	defer pinned.release()

	rep, err := st.CompactTo(core.CSF)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != core.CSF {
		t.Fatalf("report kind %v, want CSF", rep.Kind)
	}
	if rep.FragmentsAfter != 1 {
		t.Fatalf("compaction left %d fragments", rep.FragmentsAfter)
	}
	if st.Kind() != core.CSF {
		t.Fatalf("store kind %v after CompactTo(CSF)", st.Kind())
	}
	gotC, gotV, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameExport(t, "CompactTo", gotC, gotV, wantC, wantV)

	// The pinned snapshot still reads its COO fragments even though the
	// store's current format is CSF: fragments open by their own header
	// kind, not the manifest's.
	pinC, pinV, err := st.exportView(pinned)
	if err != nil {
		t.Fatalf("pinned pre-reorg view unreadable: %v", err)
	}
	requireSameExport(t, "pinned view", pinC, pinV, wantC, wantV)

	// Writes after the flip build CSF fragments; reads span both.
	c := tensor.NewCoords(3, 0)
	c.Append(15, 11, 9)
	if _, err := st.Write(c, []float64{42}); err != nil {
		t.Fatal(err)
	}
	got, found, _, err := readPoints(st, c)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || got[0] != 42 {
		t.Fatal("post-reorg write unreadable")
	}

	// The new organization survives reopen.
	re, err := Open(fs, "t")
	if err != nil {
		t.Fatal(err)
	}
	if re.Kind() != core.CSF {
		t.Fatalf("reopened store kind %v, want CSF", re.Kind())
	}
	reC, reV, err := re.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := wantC.Len()
	if _, found, _, err := readPoints(st, c); err != nil || !found[0] {
		t.Fatalf("post-reorg point lost: found=%v err=%v", found, err)
	}
	preExisting := false
	addr := st.lin.Linearize([]uint64{15, 11, 9})
	for i := 0; i < wantC.Len(); i++ {
		if st.lin.Linearize(wantC.At(i)) == addr {
			preExisting = true
		}
	}
	if !preExisting {
		wantLen++
	}
	if reC.Len() != wantLen {
		t.Fatalf("reopened store has %d points, want %d", reC.Len(), wantLen)
	}
	_ = reV
}

// TestCompactToSingleFragment: unlike Compact, CompactTo rewrites even
// a single-fragment store when the target kind differs — and is a no-op
// when it matches.
func TestCompactToSingleFragment(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, tensor.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	writeBand(t, st, 1)
	rep, err := st.CompactTo(core.GCSR)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != core.GCSR || st.Kind() != core.GCSR {
		t.Fatalf("single-fragment CompactTo: kind %v/%v, want GCSR", rep.Kind, st.Kind())
	}

	// Same kind again: nothing to do, fragment count unchanged.
	before := st.Fragments()
	rep, err = st.CompactTo(core.GCSR)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fragments() != before || rep.FragmentsAfter != before {
		t.Fatal("no-op CompactTo rewrote the store")
	}

	if _, err := st.CompactTo(core.Kind(99)); err == nil {
		t.Fatal("CompactTo accepted an invalid kind")
	}
}

// TestCompactAuto: the advisor-guided pass lands on a valid registered
// kind, preserves contents, and reports the organization it chose.
func TestCompactAuto(t *testing.T) {
	shape := tensor.Shape{16, 12, 10}
	st := messyStore(t, core.COO, shape, 307)
	wantC, wantV, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.CompactAuto()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Kind.Valid() {
		t.Fatalf("CompactAuto reported invalid kind %v", rep.Kind)
	}
	if st.Kind() != rep.Kind {
		t.Fatalf("store kind %v, report says %v", st.Kind(), rep.Kind)
	}
	if rep.FragmentsAfter != 1 {
		t.Fatalf("CompactAuto left %d fragments", rep.FragmentsAfter)
	}
	gotC, gotV, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameExport(t, "CompactAuto", gotC, gotV, wantC, wantV)

	// Empty store: keeps its kind, no fragments invented.
	empty, err := Create(newSim(t), "e", core.GCSC, shape)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = empty.CompactAuto()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != core.GCSC || empty.Fragments() != 0 {
		t.Fatalf("empty CompactAuto: kind %v, %d fragments", rep.Kind, empty.Fragments())
	}
}

// TestAutoReorgOption: WithAutoReorg upgrades the background compaction
// worker to CompactAuto — after enough writes trigger it and Close
// drains the worker, the store is consolidated and its contents intact.
// Without WithBackgroundCompaction the option is rejected.
func TestAutoReorgOption(t *testing.T) {
	fs := newSim(t)
	shape := tensor.Shape{16, 12, 10}
	st, err := Create(fs, "t", core.COO, shape,
		WithBackgroundCompaction(3), WithAutoReorg())
	if err != nil {
		t.Fatal(err)
	}
	var model map[uint64]float64
	{
		st2 := messyStore(t, core.COO, shape, 401)
		c, v, err := st2.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		model = map[uint64]float64{}
		for i, n := 0, c.Len(); i < n; i++ {
			model[st2.lin.Linearize(c.At(i))] = v[i]
		}
		// Replay the identical mutations against the auto-reorg store.
		messyMutations(t, st, shape, 401)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fs, "t")
	if err != nil {
		t.Fatal(err)
	}
	c, v, err := re.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(model) {
		t.Fatalf("auto-reorg store has %d live cells, want %d", c.Len(), len(model))
	}
	for i, n := 0, c.Len(); i < n; i++ {
		if model[re.lin.Linearize(c.At(i))] != v[i] {
			t.Fatalf("auto-reorg lost point %v", c.At(i))
		}
	}
	if !re.Kind().Valid() {
		t.Fatalf("auto-reorg left invalid kind %v", re.Kind())
	}

	_, err = Create(newSim(t), "x", core.COO, shape, WithAutoReorg())
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("WithAutoReorg without WithBackgroundCompaction: err=%v, want ErrBadOption", err)
	}
}
