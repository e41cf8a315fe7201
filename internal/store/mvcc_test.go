package store

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// Tests for the MVCC snapshot machinery: epoch publication, deferred
// fragment deletion, orphan collection on Open, crash safety of the
// compaction swap, and the background compaction surface.

// TestEpochAdvances: every mutation publishes a fresh epoch, reports
// carry the epoch they committed at or pinned, and Epoch() tracks the
// current view.
func TestEpochAdvances(t *testing.T) {
	shape := tensor.Shape{8, 8}
	st, err := Create(newSim(t), "t", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 0 {
		t.Fatalf("fresh store at epoch %d, want 0", st.Epoch())
	}
	rng := rand.New(rand.NewSource(1))
	c1, v1 := randomPoints(rng, shape, 10)
	wrep, err := st.Write(c1, v1)
	if err != nil {
		t.Fatal(err)
	}
	if wrep.Epoch != 1 || st.Epoch() != 1 {
		t.Fatalf("first write: report epoch %d, store epoch %d, want 1", wrep.Epoch, st.Epoch())
	}
	c2, v2 := randomPoints(rng, shape, 10)
	if wrep, err = st.Write(c2, v2); err != nil {
		t.Fatal(err)
	}
	if wrep.Epoch != 2 {
		t.Fatalf("second write at epoch %d, want 2", wrep.Epoch)
	}
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if wrep, err = st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	if wrep.Epoch != 3 {
		t.Fatalf("delete at epoch %d, want 3", wrep.Epoch)
	}
	_, rrep, err := readProbe(st, c1)
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Epoch != 3 {
		t.Fatalf("read pinned epoch %d, want 3", rrep.Epoch)
	}
	// Compact publishes the consolidated snapshot as one more epoch.
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 4 {
		t.Fatalf("after compact at epoch %d, want 4", st.Epoch())
	}
	if _, rrep, err = readProbe(st, c1); err != nil {
		t.Fatal(err)
	}
	if rrep.Epoch != 4 {
		t.Fatalf("post-compact read pinned epoch %d, want 4", rrep.Epoch)
	}
}

// TestReadsDoNotBlockOnWriterLock: the writer lock may be held for the
// whole span of a mutation or compaction; reads must still complete —
// they serve from the published snapshot and never touch writeMu.
func TestReadsDoNotBlockOnWriterLock(t *testing.T) {
	shape := tensor.Shape{8, 8}
	st, err := Create(newSim(t), "t", core.CSF, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	c, v := randomPoints(rng, shape, 20)
	if _, err := st.Write(c, v); err != nil {
		t.Fatal(err)
	}
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	only(st).writeMu.Lock() // a writer (or compaction) is mid-mutation
	done := make(chan error, 1)
	go func() {
		res, _, err := readProbe(st, region.Coords())
		if err == nil && res.Coords.Len() != 20 {
			err = errors.New("read under writer lock returned wrong contents")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read blocked behind the writer lock")
	}
	only(st).writeMu.Unlock()
}

// TestNoMixedEpochReads: while a writer rewrites the full domain with a
// new uniform value and compaction continuously swaps the fragment set,
// every read must return one coherent snapshot — all cells present, all
// carrying the same value. A read that mixed two epochs would see two
// values or a partial fragment set.
func TestNoMixedEpochReads(t *testing.T) {
	shape := tensor.Shape{8, 8}
	st, err := Create(newSim(t), "t", core.GCSR, shape)
	if err != nil {
		t.Fatal(err)
	}
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	full := region.Coords()
	vals := make([]float64, full.Len())
	rounds := 25
	if testing.Short() {
		rounds = 8
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= rounds; i++ {
			for j := range vals {
				vals[j] = float64(i)
			}
			if _, err := st.Write(full, vals); err != nil {
				t.Errorf("write round %d: %v", i, err)
				return
			}
			if _, err := st.Compact(); err != nil {
				t.Errorf("compact round %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, rep, err := readProbe(st, region.Coords())
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if res.Coords.Len() == 0 {
					continue // before the first write landed
				}
				if res.Coords.Len() != full.Len() {
					t.Errorf("epoch %d: read %d cells, want %d — partial snapshot",
						rep.Epoch, res.Coords.Len(), full.Len())
					return
				}
				for i, v := range res.Values {
					if v != res.Values[0] {
						t.Errorf("epoch %d: mixed values %v and %v at cell %d — torn read",
							rep.Epoch, res.Values[0], v, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompactDeferredDeletion: a pinned view holds the superseded
// fragment files on disk across a compaction; releasing the last pin
// deletes them.
func TestCompactDeferredDeletion(t *testing.T) {
	shape := tensor.Shape{8, 8}
	reg := obs.New()
	sim := newSim(t)
	st, err := Create(sim, "t", core.COO, shape, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ref := newModel(t, shape)
	for i := 0; i < 3; i++ {
		c, v := randomPoints(rng, shape, 8)
		if _, err := st.Write(c, v); err != nil {
			t.Fatal(err)
		}
		ref.write(c, v)
	}
	fragFiles := func() int {
		names, err := sim.List("t/frag-")
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	if n := fragFiles(); n != 3 {
		t.Fatalf("%d fragment files before compact, want 3", n)
	}
	v := only(st).acquireView() // a long-running read pins the pre-compaction epoch
	rep, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragmentsAfter != 1 {
		t.Fatalf("compact left %d fragments", rep.FragmentsAfter)
	}
	if n := fragFiles(); n != 4 {
		t.Fatalf("%d fragment files while a view is pinned, want 4 (3 deferred + 1 new)", n)
	}
	if g := reg.Gauge("store.gc.pending", "kind", "COO").Value(); g != 1 {
		t.Fatalf("store.gc.pending = %d, want 1", g)
	}
	// The pinned view still reads the old fragment set coherently.
	oldCoords, _, err := only(st).exportView(v, only(st).scanPlan(nil))
	if err != nil {
		t.Fatalf("pinned-view read: %v", err)
	}
	if oldCoords.Len() != len(ref.data) {
		t.Fatalf("pinned view lost contents: %d cells, want %d", oldCoords.Len(), len(ref.data))
	}
	v.release() // last pin drains: the deferred batch runs
	if n := fragFiles(); n != 1 {
		t.Fatalf("%d fragment files after the pin drained, want 1", n)
	}
	if c := reg.Counter("store.gc.deferred", "kind", "COO").Value(); c != 3 {
		t.Fatalf("store.gc.deferred = %d, want 3", c)
	}
	if g := reg.Gauge("store.gc.pending", "kind", "COO").Value(); g != 0 {
		t.Fatalf("store.gc.pending = %d after drain, want 0", g)
	}
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if coords.Len() != len(ref.data) {
		t.Fatalf("after drain: %d cells, want %d", coords.Len(), len(ref.data))
	}
	for i := 0; i < coords.Len(); i++ {
		if ref.data[ref.lin.Linearize(coords.At(i))] != vals[i] {
			t.Fatalf("cell %v changed across compaction", coords.At(i))
		}
	}
}

// TestOpenCollectsOrphans: a crash between a compaction's swap and its
// deferred deletion leaves the superseded files on disk. The next Open
// must detect and remove them (store.gc.orphans), and the late release
// of the dead handle's view must tolerate the files being gone.
func TestOpenCollectsOrphans(t *testing.T) {
	shape := tensor.Shape{8, 8}
	regA := obs.New()
	sim := newSim(t)
	st, err := Create(sim, "t", core.Linear, shape, WithObs(regA))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	ref := newModel(t, shape)
	for i := 0; i < 3; i++ {
		c, v := randomPoints(rng, shape, 8)
		if _, err := st.Write(c, v); err != nil {
			t.Fatal(err)
		}
		ref.write(c, v)
	}
	v := only(st).acquireView()
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// "Crash": the handle never releases its view, so the three
	// superseded files are still on disk when the store reopens.
	if names, _ := sim.List("t/frag-"); len(names) != 4 {
		t.Fatalf("%d fragment files at crash, want 4", len(names))
	}
	regB := obs.New()
	st2, err := Open(sim, "t", WithObs(regB))
	if err != nil {
		t.Fatal(err)
	}
	if c := regB.Counter("store.gc.orphans", "kind", "LINEAR").Value(); c != 3 {
		t.Fatalf("store.gc.orphans = %d, want 3", c)
	}
	if names, _ := sim.List("t/frag-"); len(names) != 1 {
		t.Fatalf("%d fragment files after orphan collection, want 1", len(names))
	}
	coords, vals, err := st2.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if coords.Len() != len(ref.data) {
		t.Fatalf("reopened store has %d cells, want %d", coords.Len(), len(ref.data))
	}
	for i := 0; i < coords.Len(); i++ {
		if ref.data[ref.lin.Linearize(coords.At(i))] != vals[i] {
			t.Fatalf("cell %v changed across crash recovery", coords.At(i))
		}
	}
	// The dead handle's view drains late: removal of the already-gone
	// files must not count as a GC error.
	v.release()
	if c := regA.Counter("store.gc.errors", "kind", "LINEAR").Value(); c != 0 {
		t.Fatalf("store.gc.errors = %d after draining onto collected orphans, want 0", c)
	}
}

// TestCompactCrashSweep walks a fault injection point across every
// filesystem operation of a compaction. At every crash point the store
// must either have completed the swap or still serve the old state —
// and a reopen from the surviving files must agree — under every store
// configuration (storeConfigs): the log folded on every commit or never
// moves where the crash points fall, the cache rows what the surviving
// handle may still hold.
func TestCompactCrashSweep(t *testing.T) {
	eachStoreConfig(t, testCompactCrashSweep)
}

func testCompactCrashSweep(t *testing.T, opts []Option) {
	shape := tensor.Shape{12, 12}
	build := func() (*fsim.SimFS, *model) {
		sim := fsim.NewPerlmutterSim()
		st, err := Create(sim, "t", core.COO, shape, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		ref := newModel(t, shape)
		for i := 0; i < 4; i++ {
			c, v := randomPoints(rng, shape, 12)
			if _, err := st.Write(c, v); err != nil {
				t.Fatal(err)
			}
			ref.write(c, v)
		}
		region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{3, 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.DeleteRegion(region); err != nil {
			t.Fatal(err)
		}
		p := make([]uint64, 2)
		for addr := range ref.data {
			ref.lin.Delinearize(addr, p)
			if region.Contains(p) {
				delete(ref.data, addr)
			}
		}
		settle(st)
		return sim, ref
	}
	verify := func(st *Store, ref *model, when string) {
		t.Helper()
		coords, vals, err := st.ExportAll()
		if err != nil {
			t.Fatalf("%s: export: %v", when, err)
		}
		if coords.Len() != len(ref.data) {
			t.Fatalf("%s: %d cells, want %d", when, coords.Len(), len(ref.data))
		}
		for i := 0; i < coords.Len(); i++ {
			if ref.data[ref.lin.Linearize(coords.At(i))] != vals[i] {
				t.Fatalf("%s: cell %v wrong", when, coords.At(i))
			}
		}
	}
	for k := 0; k < 100; k++ {
		sim, ref := build()
		ff := fsim.NewFaultFS(sim)
		st, err := Open(ff, "t", opts...)
		if err != nil {
			t.Fatalf("k=%d: clean open failed: %v", k, err)
		}
		ff.FailAfter = k
		_, cerr := st.Compact()
		ff.FailAfter = -1 // "reboot": stop injecting
		if cerr != nil {
			// Crashed mid-compaction: the live handle still serves the
			// full pre-compaction state.
			verify(st, ref, "live handle after injected crash")
		}
		st2, err := Open(sim, "t", opts...)
		if err != nil {
			t.Fatalf("k=%d: reopen after crash: %v", k, err)
		}
		verify(st2, ref, "reopen after crash")
		// The reopened store remains writable.
		c := tensor.NewCoords(2, 0)
		c.Append(11, 11)
		if _, err := st2.Write(c, []float64{42}); err != nil {
			t.Fatalf("k=%d: write after recovery: %v", k, err)
		}
		if cerr == nil && ff.Injected() == 0 {
			if st.Fragments() != 1 {
				t.Fatalf("k=%d: compact succeeded with %d fragments", k, st.Fragments())
			}
			break // past the last injection point; the sweep is done
		}
		if k == 99 {
			t.Fatal("sweep never reached a successful compaction")
		}
	}
}

// TestBackgroundCompaction: the WithBackgroundCompaction trigger
// consolidates once the fragment count crosses the threshold, without
// any explicit Compact call.
func TestBackgroundCompaction(t *testing.T) {
	shape := tensor.Shape{8, 8}
	reg := obs.New()
	st, err := Create(newSim(t), "t", core.COO, shape,
		WithBackgroundCompaction(4), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ref := newModel(t, shape)
	for i := 0; i < 6; i++ {
		c, v := randomPoints(rng, shape, 6)
		if _, err := st.Write(c, v); err != nil {
			t.Fatal(err)
		}
		ref.write(c, v)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.Fragments() > 3 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %d fragments", st.Fragments())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := st.Close(); err != nil { // waits for the worker
		t.Fatal(err)
	}
	if c := reg.Counter("store.compact.background.runs", "kind", "COO").Value(); c == 0 {
		t.Fatal("store.compact.background.runs not counted")
	}
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if coords.Len() != len(ref.data) {
		t.Fatalf("background compaction lost cells: %d, want %d", coords.Len(), len(ref.data))
	}
	for i := 0; i < coords.Len(); i++ {
		if ref.data[ref.lin.Linearize(coords.At(i))] != vals[i] {
			t.Fatalf("cell %v changed under background compaction", coords.At(i))
		}
	}
}

// TestBackgroundCompactionOptionValidation: thresholds below 2 are
// option misuse.
func TestBackgroundCompactionOptionValidation(t *testing.T) {
	for _, bad := range []int{1, 0, -3} {
		_, err := Create(newSim(t), "t", core.COO, tensor.Shape{4, 4},
			WithBackgroundCompaction(bad))
		if !errors.Is(err, ErrBadOption) {
			t.Fatalf("WithBackgroundCompaction(%d): error %v does not match ErrBadOption", bad, err)
		}
	}
}
