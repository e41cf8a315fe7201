package store

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

func TestExportAllMergesOverlaps(t *testing.T) {
	shape := tensor.Shape{6, 6}
	fs := newSim(t)
	st, err := Create(fs, "t", core.GCSR, shape)
	if err != nil {
		t.Fatal(err)
	}
	c1 := tensor.NewCoords(2, 0)
	c1.Append(1, 1)
	c1.Append(2, 2)
	if _, err := st.Write(c1, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	c2 := tensor.NewCoords(2, 0)
	c2.Append(2, 2)
	if _, err := st.Write(c2, []float64{99}); err != nil {
		t.Fatal(err)
	}
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if coords.Len() != 2 {
		t.Fatalf("exported %d cells, want 2", coords.Len())
	}
	// Sorted by address: (1,1)=10 then (2,2)=99 (newest wins).
	if coords.Get(0, 0) != 1 || vals[0] != 10 {
		t.Fatalf("cell 0 = %v %v", coords.At(0), vals[0])
	}
	if coords.Get(1, 0) != 2 || vals[1] != 99 {
		t.Fatalf("cell 1 = %v %v", coords.At(1), vals[1])
	}
}

func TestCompactConsolidatesAndPreservesContents(t *testing.T) {
	shape := tensor.Shape{10, 10, 10}
	for _, kind := range append(core.PaperKinds(), core.COOSorted) {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind) * 31))
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			ref := newModel(t, shape)
			for round := 0; round < 4; round++ {
				coords, vals := randomPoints(rng, shape, 60)
				if _, err := st.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
				ref.write(coords, vals)
			}
			before, _, err := st.ExportAll()
			if err != nil {
				t.Fatal(err)
			}

			rep, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if rep.FragmentsBefore != 4 || rep.FragmentsAfter != 1 || st.Fragments() != 1 {
				t.Fatalf("compact report %+v, fragments now %d", rep, st.Fragments())
			}
			if rep.PointsAfter != len(ref.data) || rep.PointsBefore != 240 {
				t.Fatalf("points %d -> %d, want 240 -> %d", rep.PointsBefore, rep.PointsAfter, len(ref.data))
			}
			if rep.BytesAfter >= rep.BytesBefore {
				t.Fatalf("compaction grew the store: %d -> %d", rep.BytesBefore, rep.BytesAfter)
			}

			// The logical contents are unchanged.
			after, vals, err := st.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			if !after.Equal(before) {
				t.Fatal("compaction changed the cell set")
			}
			for i := 0; i < after.Len(); i++ {
				if want := ref.data[ref.lin.Linearize(after.At(i))]; vals[i] != want {
					t.Fatalf("cell %v = %v, want %v", after.At(i), vals[i], want)
				}
			}
			// Old fragment files are gone.
			names, err := fs.List("t/frag-")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 {
				t.Fatalf("%d fragment files remain: %v", len(names), names)
			}
			// A reopened handle sees the compacted store.
			st2, err := Open(fs, "t")
			if err != nil {
				t.Fatal(err)
			}
			if st2.Fragments() != 1 {
				t.Fatalf("reopened store has %d fragments", st2.Fragments())
			}
		})
	}
}

func TestCompactSingleFragmentIsNoop(t *testing.T) {
	shape := tensor.Shape{4, 4}
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)
	if _, err := st.Write(c, []float64{1}); err != nil {
		t.Fatal(err)
	}
	bytesBefore := st.TotalBytes()
	rep, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragmentsBefore != 1 || rep.FragmentsAfter != 1 || st.TotalBytes() != bytesBefore {
		t.Fatalf("noop compact changed the store: %+v", rep)
	}
}

func TestConvertBetweenOrganizations(t *testing.T) {
	shape := tensor.Shape{8, 8, 8}
	rng := rand.New(rand.NewSource(77))
	coords, vals := randomPoints(rng, shape, 100)
	fs := newSim(t)
	src, err := Create(fs, "src", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(coords, vals); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.CSF, core.Linear, core.GCSC} {
		dst, _, err := Convert(context.Background(), src, fs, "dst-"+kind.String(), kind, ConvertConfig{}, WithCodec(compress.DeltaVarint))
		if err != nil {
			t.Fatal(err)
		}
		if dst.Kind() != kind {
			t.Fatalf("converted kind %v", dst.Kind())
		}
		got, gotVals, err := dst.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		want, wantVals, err := src.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v: contents differ after conversion", kind)
		}
		for i := range wantVals {
			if gotVals[i] != wantVals[i] {
				t.Fatalf("%v: value %d differs", kind, i)
			}
		}
	}
}

func TestConvertEmptyStore(t *testing.T) {
	fs := newSim(t)
	src, err := Create(fs, "src", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err := Convert(context.Background(), src, fs, "dst", core.CSF, ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if dst.Fragments() != 0 {
		t.Fatalf("empty conversion wrote %d fragments", dst.Fragments())
	}
}

func TestReadRegionScanMatchesProbeRead(t *testing.T) {
	shape := tensor.Shape{12, 12, 12}
	rng := rand.New(rand.NewSource(55))
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				coords, vals := randomPoints(rng, shape, 80)
				if _, err := st.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
			}
			region, err := tensor.NewRegion(shape, []uint64{2, 1, 3}, []uint64{7, 9, 5})
			if err != nil {
				t.Fatal(err)
			}
			probe, prep, err := readProbe(st, region.Coords())
			if err != nil {
				t.Fatal(err)
			}
			scan, srep, err := readRegion(st, region, StrategyScan)
			if err != nil {
				t.Fatal(err)
			}
			if !probe.Coords.Equal(scan.Coords) {
				t.Fatalf("scan found %d cells, probe %d", scan.Coords.Len(), probe.Coords.Len())
			}
			for i := range probe.Values {
				if probe.Values[i] != scan.Values[i] {
					t.Fatalf("value %d differs", i)
				}
			}
			if srep.Found != prep.Found || srep.Fragments != prep.Fragments {
				t.Fatalf("reports disagree: scan %+v probe %+v", srep, prep)
			}
		})
	}
}

func TestReadRegionScanValidation(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.Region{Start: []uint64{0}, Size: []uint64{1}}
	if _, _, err := readRegion(st, bad, StrategyScan); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

// TestChunkedCompactsByDefault: with no option set, a tile store
// compacts itself once it holds 64 fragments. 64 one-batch writes
// across every tile of a chunked CSF store leave each tile one fragment
// after Close, on SimFS and on OSFS; a whole-store read is
// byte-identical to the same writes with compaction out of reach, and
// every stored point passes its fragment's key filter and answers a
// one-point probe.
func TestChunkedCompactsByDefault(t *testing.T) {
	shape, tile := tensor.Shape{16, 16, 12}, tensor.Shape{8, 8, 6}
	whole := tensor.Region{Start: []uint64{0, 0, 0}, Size: shape}
	for _, backend := range []string{"sim", "os"} {
		t.Run(backend, func(t *testing.T) {
			newFS := func() fsim.FS {
				if backend == "sim" {
					return newSim(t)
				}
				ofs, err := fsim.NewOSFS(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return ofs
			}
			st, err := NewChunked(newFS(), "c", core.CSF, shape, tile)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewChunked(newFS(), "c", core.CSF, shape, tile, WithBackgroundCompaction(1<<30))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(64))
			for i := 0; i < 64; i++ {
				c, vals := randomPoints(rng, shape, 80) // every tile, every write
				for _, s := range []*Store{st, ref} {
					if _, err := s.Write(c, vals); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, s := range []*Store{st, ref} {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if st.Tiles() != 8 {
				t.Fatalf("%d tiles, want 8", st.Tiles())
			}
			for _, e := range st.dir.Load().sorted {
				if n := e.tile.fragments(); n != 1 {
					t.Fatalf("tile %s holds %d fragments after Close, want 1", e.name, n)
				}
				requireKeysHold(t, "tile "+e.name, e.tile)
			}
			if n := ref.Fragments(); n != 8*64 {
				t.Fatalf("reference store holds %d fragments, want %d", n, 8*64)
			}
			req := QueryRequest{Region: &whole, AsOf: AsOfLatest}
			got, want := regionArms(t, "compacted", st, req), regionArms(t, "reference", ref, req)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the compacted store reads %d points, the reference %d, or values differ", got.Coords.Len(), want.Coords.Len())
			}
			for i, n := 0, got.Coords.Len(); i < n; i++ {
				probe := tensor.NewCoords(3, 1)
				probe.AppendFlat(got.Coords.At(i))
				res, _, err := readProbe(st, probe)
				if err != nil || res.Coords.Len() != 1 || res.Values[0] != got.Values[i] {
					t.Fatalf("probe of stored point %v: %v (%v), want %v", got.Coords.At(i), res, err, got.Values[i])
				}
			}
		})
	}
}

// TestCompactionLeavesReaderCacheAlone: compaction reads its inputs
// without filling the reader cache. A window read warms the cache of a
// two-tile store; compacting one tile then loads only its non-resident
// inputs, and leaves the cache's entries, bytes, hits and misses as
// they were, less the compacted tile's entries, which retire with its
// inputs.
func TestCompactionLeavesReaderCacheAlone(t *testing.T) {
	shape, tile := tensor.Shape{8, 16}, tensor.Shape{8, 8}
	reg := obs.New()
	fs := &countingFS{FS: newSim(t)}
	c, err := NewChunked(fs, "c", core.GCSR, shape, tile, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ { // four row bands, each across both tiles
		band := tensor.NewCoords(2, 0)
		var vals []float64
		for col := uint64(0); col < 16; col++ {
			band.Append(2*i, col)
			band.Append(2*i+1, col)
			vals = append(vals, float64(i), float64(col))
		}
		if _, err := c.Write(band, vals); err != nil {
			t.Fatal(err)
		}
	}
	// The window meets two bands: half of each tile's fragments become
	// resident.
	window := tensor.Region{Start: []uint64{2, 0}, Size: []uint64{4, 16}}
	if _, _, err := readRegion(c, window, StrategyScan); err != nil {
		t.Fatal(err)
	}
	cache := c.SharedCache()
	type state struct{ entries, bytes, hits, misses int64 }
	now := func() state {
		return state{int64(cache.Len()), cache.SizeBytes(), reg.Counter("fragcache.hits").Value(), reg.Counter("fragcache.misses").Value()}
	}
	before := now()
	if before.entries != 4 {
		t.Fatalf("the window read left %d entries resident, want 4", before.entries)
	}
	first := c.dir.Load().sorted[0].tile
	var resident int64
	for _, fr := range first.currentFrags() {
		if e := cache.Peek(fr.name); e != nil {
			resident += e.Bytes
		}
	}
	fs.n = fsCalls{}
	rep, err := first.compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragmentsBefore != 4 || rep.FragmentsAfter != 1 {
		t.Fatalf("compact report %+v", rep)
	}
	if fs.n.opens != 2 {
		t.Fatalf("compaction opened %d fragment files, want the 2 not resident", fs.n.opens)
	}
	want := state{before.entries - 2, before.bytes - resident, before.hits, before.misses}
	if got := now(); got != want {
		t.Fatalf("cache after compaction %+v, want %+v", got, want)
	}
}

// gateWitnessFS records, at every file open, how many compactions its
// registry has in flight, and stretches each open so that compactions
// running together would overlap one. Only compaction's export opens
// fragment files here: the ingest writes them, and nothing else reads.
type gateWitnessFS struct {
	fsim.FS
	inflight *obs.Gauge
	max      atomic.Int64
}

func (w *gateWitnessFS) Open(name string) (fsim.File, error) {
	for n := w.inflight.Value(); n > w.max.Load(); n = w.inflight.Value() {
		w.max.CompareAndSwap(w.max.Load(), n)
	}
	time.Sleep(2 * time.Millisecond)
	return w.FS.Open(name)
}

// TestChunkedCompactsOneTileAtATime: sixteen tiles that cross the
// threshold in one ingest compact one after another — never more than
// one compaction in flight (store.compact.inflight) — and Close returns
// with every worker gone.
func TestChunkedCompactsOneTileAtATime(t *testing.T) {
	baseline := runtime.NumGoroutine()
	shape, tile := tensor.Shape{16, 16}, tensor.Shape{4, 4}
	reg := obs.New()
	fs := &gateWitnessFS{FS: newSim(t), inflight: reg.Gauge("store.compact.inflight", "kind", "COO")}
	c, err := NewChunked(fs, "c", core.COO, shape, tile, WithBackgroundCompaction(4), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	batches := make([]Batch, 4)
	for i := range batches {
		c, vals := randomPoints(rng, shape, 200) // all sixteen tiles
		batches[i] = Batch{Coords: c, Values: vals}
	}
	// Three fragments per tile, then one ingest that gives every tile its
	// fourth: sixteen workers are spawned within one short commit loop.
	for _, part := range [][]Batch{batches[:3], batches[3:]} {
		if _, err := c.WriteBatch(part, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Tiles() != 16 || c.Fragments() != 16 {
		t.Fatalf("%d tiles hold %d fragments, want 16 and 16", c.Tiles(), c.Fragments())
	}
	if runs := reg.Counter("store.compact.background.runs", "kind", "COO").Value(); runs != 16 {
		t.Fatalf("%d background compactions, want 16", runs)
	}
	if m := fs.max.Load(); m != 1 {
		t.Fatalf("at most %d compactions were in flight at an open, want 1", m)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the store", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlatStoreKeepsHistoryByDefault: with no option set, a flat store
// never compacts behind the caller's back — only a Chunked store's
// tiles take the default threshold — so past 64 writes every as-of
// version still answers the state after its first k fragments.
func TestFlatStoreKeepsHistoryByDefault(t *testing.T) {
	st, err := Create(newSim(t), "t", core.CSF, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	const writes = defaultCompactAt + 8
	for i := 1; i <= writes; i++ {
		c := tensor.NewCoords(2, 1)
		c.Append(1, 2)
		if _, err := st.Write(c, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	settle(st)
	if n := st.Fragments(); n != writes {
		t.Fatalf("%d fragments after %d writes, want %d", n, writes, writes)
	}
	probe := tensor.NewCoords(2, 1)
	probe.Append(1, 2)
	for _, k := range []int{1, defaultCompactAt / 2, defaultCompactAt, writes} {
		res, _, err := readAsOf(st, probe, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coords.Len() != 1 || res.Values[0] != float64(k) {
			t.Fatalf("as of version %d: %v, want value %d", k, res.Values, k)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
