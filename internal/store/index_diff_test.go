package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// requireOracle asserts a read result is exactly the oracle's cells
// inside the target, in strictly ascending linear-address order.
func requireOracle(t *testing.T, label string, lin *tensor.Linearizer, res *Result, want map[uint64]float64) {
	t.Helper()
	if res.Coords.Len() != len(want) {
		t.Fatalf("%s: %d points, oracle has %d", label, res.Coords.Len(), len(want))
	}
	var prev uint64
	for i, n := 0, res.Coords.Len(); i < n; i++ {
		addr := lin.Linearize(res.Coords.At(i))
		if i > 0 && addr <= prev {
			t.Fatalf("%s: point %d at address %d follows %d", label, i, addr, prev)
		}
		prev = addr
		if v, ok := want[addr]; !ok || math.Float64bits(v) != math.Float64bits(res.Values[i]) {
			t.Fatalf("%s: point %v = %v, oracle says %v (present=%v)", label, res.Coords.At(i), res.Values[i], v, ok)
		}
	}
}

// TestDifferentialReadOracle is the acceptance property of the one READ
// loop over its whole input space: Strategy × Workers × {probe, as-of
// probe, region}, under every store configuration (storeConfigs),
// across all organization kinds, over a store with overwrites,
// tombstones, a checkpoint (persisted index section), and a replayed
// log suffix. Every valid combination must return exactly the map
// oracle's cells — hence byte-identical results across strategies,
// worker counts and configurations — and report the same fragment
// accounting whatever the worker count. The overlap search itself is
// held to the linear-scan oracle on every target.
func TestDifferentialReadOracle(t *testing.T) {
	eachStoreConfig(t, testDifferentialReadOracle)
}

func testDifferentialReadOracle(t *testing.T, opts []Option) {
	shape := tensor.Shape{24, 24, 24}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	kinds := append(core.PaperKinds(), core.COOSorted, core.BCOO)
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// versions[k] is the oracle's state after the first k
			// fragments (tombstones count as fragments).
			versions := []map[uint64]float64{{}}
			mutate := func(apply func(m map[uint64]float64)) {
				next := make(map[uint64]float64, len(versions[len(versions)-1]))
				for a, v := range versions[len(versions)-1] {
					next[a] = v
				}
				apply(next)
				versions = append(versions, next)
			}
			rng := rand.New(rand.NewSource(23))
			write := func() {
				c, vals := randomPoints(rng, shape, 150)
				if _, err := st.Write(c, vals); err != nil {
					t.Fatal(err)
				}
				mutate(func(m map[uint64]float64) {
					for i, v := range vals {
						m[lin.Linearize(c.At(i))] = v
					}
				})
			}
			del := func(start, size []uint64) {
				region, err := tensor.NewRegion(shape, start, size)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.DeleteRegion(region); err != nil {
					t.Fatal(err)
				}
				mutate(func(m map[uint64]float64) {
					region.Each(func(p []uint64) { delete(m, lin.Linearize(p)) })
				})
			}
			for i := 0; i < 4; i++ {
				write()
			}
			del([]uint64{0, 0, 0}, []uint64{6, 6, 6})
			write()
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Mutations after the checkpoint live in the delta log (unless
			// the configuration folds every commit): the reopened handle
			// must extend the persisted grid over them.
			del([]uint64{12, 12, 0}, []uint64{6, 6, 24})
			write()
			nfrags := len(st.frags)
			if nfrags != len(versions)-1 {
				t.Fatalf("store has %d fragments, oracle %d versions", nfrags, len(versions)-1)
			}

			// The writing handle's grid grew copy-on-write, commit by
			// commit; the reopened one's was adopted from the checkpoint
			// and extended over the log. Both must answer alike.
			reopened, err := Open(fs, "t", opts...)
			if err != nil {
				t.Fatal(err)
			}
			handles := []*Store{st, reopened}
			for hi, handle := range handles {
				if handle.cur.index.n != nfrags {
					t.Fatalf("handle %d: index covers %d fragments, store has %d", hi, handle.cur.index.n, nfrags)
				}
			}

			// The targets, each with the oracle's answer.
			type target struct {
				name string
				req  QueryRequest
				want map[uint64]float64
			}
			var targets []target
			probe, _ := randomPoints(rng, shape, 200)
			for _, ver := range []int64{AsOfLatest, 0, int64(nfrags / 2), int64(nfrags)} {
				state := versions[len(versions)-1]
				if ver != AsOfLatest {
					state = versions[ver]
				}
				want := map[uint64]float64{}
				for i, n := 0, probe.Len(); i < n; i++ {
					if v, ok := state[lin.Linearize(probe.At(i))]; ok {
						want[lin.Linearize(probe.At(i))] = v
					}
				}
				targets = append(targets, target{fmt.Sprintf("probe@%d", ver), QueryRequest{Probe: probe, AsOf: ver}, want})
			}
			for _, rg := range [][2][]uint64{
				{{0, 0, 0}, {24, 24, 24}}, // whole domain
				{{0, 0, 0}, {6, 6, 6}},    // fully tombstoned
				{{8, 8, 8}, {5, 5, 5}},    // interior window
				{{12, 12, 0}, {8, 8, 24}}, // straddles the second tombstone
			} {
				region, err := tensor.NewRegion(shape, rg[0], rg[1])
				if err != nil {
					t.Fatal(err)
				}
				want := map[uint64]float64{}
				p := make([]uint64, 3)
				for a, v := range versions[len(versions)-1] {
					if lin.Delinearize(a, p); region.Contains(p) {
						want[a] = v
					}
				}
				targets = append(targets, target{fmt.Sprintf("region%v", rg), QueryRequest{Region: &region, AsOf: AsOfLatest}, want})
			}

			for _, tg := range targets {
				var box tensor.BBox
				if tg.req.Probe != nil {
					box, _ = tg.req.Probe.Bounds()
				} else {
					box = tg.req.Region.BBox()
				}
				limit := nfrags
				if tg.req.AsOf != AsOfLatest {
					limit = int(tg.req.AsOf)
				}
				for hi, handle := range handles {
					got, want := handle.cur.overlapping(box, limit), linearOverlap(handle.cur.frags, box, limit)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/reopened=%v: overlapping() = %v, linear scan = %v", tg.name, hi == 1, got, want)
					}
				}
				for _, strategy := range []Strategy{StrategyDefault, StrategyScan, StrategyAuto} {
					for hi, handle := range handles {
						var serial *ReadReport
						for _, workers := range []int{0, 1, 4} {
							req := tg.req
							req.Strategy, req.Workers = strategy, workers
							label := fmt.Sprintf("%s/%v/reopened=%v/workers=%d", tg.name, strategy, hi == 1, workers)
							res, rep, err := handle.Query(context.Background(), req)
							if req.Probe != nil && strategy != StrategyDefault {
								if !errors.Is(err, ErrBadRequest) {
									t.Fatalf("%s: err = %v, want ErrBadRequest", label, err)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							requireOracle(t, label, lin, res, tg.want)
							if serial == nil {
								serial = rep
							}
							if rep.Fragments != serial.Fragments || rep.Found != serial.Found ||
								rep.Candidates != serial.Candidates || rep.FilterSkipped != serial.FilterSkipped ||
								rep.Probed != serial.Probed || rep.Scans != serial.Scans {
								t.Fatalf("%s: report %+v, serial %+v", label, rep, serial)
							}
						}
					}
				}
			}
		})
	}
}

// TestFilterSkipsFragments checks the second pruning layer: a probe
// inside a fragment's bounding box but outside its per-dimension
// coordinate filter skips the fragment without fetching it, and the
// skip is counted.
func TestFilterSkipsFragments(t *testing.T) {
	fs := newSim(t)
	reg := obs.New()
	shape := tensor.Shape{64, 64, 64}
	st, err := Create(fs, "t", core.Linear, shape, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	// Two opposite corners: the bbox spans the whole domain, the filter
	// knows only coordinates {0, 63} exist per dimension.
	c := tensor.NewCoords(3, 0)
	c.Append(0, 0, 0)
	c.Append(63, 63, 63)
	if _, err := st.Write(c, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}

	key := obs.Name("store.filter.skipped", "kind", core.Linear.String())

	probe := tensor.NewCoords(3, 0)
	probe.Append(32, 32, 32) // inside the bbox, provably absent
	res, rep, err := readProbe(st, probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 0 {
		t.Fatalf("probe found %d points, want 0", res.Coords.Len())
	}
	if rep.Fragments != 0 {
		t.Fatalf("filtered read still visited %d fragments", rep.Fragments)
	}
	if n := reg.Snapshot().Counters[key]; n != 1 {
		t.Fatalf("store.filter.skipped = %d after point read, want 1", n)
	}

	region, err := tensor.NewRegion(shape, []uint64{30, 30, 30}, []uint64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRegion(st, region, StrategyScan); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters[key]; n != 2 {
		t.Fatalf("store.filter.skipped = %d after region scan, want 2", n)
	}

	// A probe the filter admits still reads through to the data.
	probe = tensor.NewCoords(3, 0)
	probe.Append(63, 63, 63)
	res, _, err = readProbe(st, probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 1 || res.Values[0] != 2 {
		t.Fatalf("admitted probe read %d points (%v), want the stored value", res.Coords.Len(), res.Values)
	}
}

// encodeManifestV1 re-encodes a decoded manifest in the retired SMN1
// layout: no flags bit 1, no filter blobs, no index section.
func encodeManifestV1(m *manifestState) []byte {
	w := buf.NewWriter(256)
	w.U32(0x314e4d53) // "SMN1"
	w.U8(uint8(m.kind))
	w.U8(uint8(m.codec))
	w.U16(uint16(m.shape.Dims()))
	w.RawU64s(m.shape)
	w.U64(m.nextID)
	w.U64(uint64(len(m.frags)))
	for _, fr := range m.frags {
		w.Bytes32([]byte(fr.name))
		w.U64(fr.nnz)
		w.U64(uint64(fr.bytes))
		if fr.nnz > 0 || fr.tomb {
			w.RawU64s(fr.bbox.Min)
			w.RawU64s(fr.bbox.Max)
		} else {
			w.RawU64s(make([]uint64, 2*m.shape.Dims()))
		}
		if fr.tomb {
			w.U8(1)
			w.RawU64s(fr.tombRegion.Start)
			w.RawU64s(fr.tombRegion.Size)
		} else {
			w.U8(0)
		}
	}
	return w.Bytes()
}

// TestOpenRejectsManifestV1: a store whose checkpoint is in the retired
// SMN1 layout is an unsupported-version outcome — typed (ErrCorrupt),
// naming the version found, distinguishable from a missing store, and
// leaving the files untouched.
func TestOpenRejectsManifestV1(t *testing.T) {
	fs := newSim(t)
	shape := tensor.Shape{16, 16}
	st, err := Create(fs, "t", core.CSF, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3; i++ {
		c, vals := randomPoints(rng, shape, 40)
		if _, err := st.Write(c, vals); err != nil {
			t.Fatal(err)
		}
	}
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the checkpoint in the retired format.
	data, err := fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeManifestV1(m)
	if err := fs.WriteFile("t/"+manifestName, v1); err != nil {
		t.Fatal(err)
	}

	_, err = Open(fs, "t")
	if !errors.Is(err, fragment.ErrCorrupt) || errors.Is(err, ErrNotFound) {
		t.Fatalf("Open of an SMN1 store: %v, want ErrCorrupt (and not ErrNotFound)", err)
	}
	if !strings.Contains(err.Error(), "SMN1") {
		t.Fatalf("error %q does not name the version found", err)
	}
	if !IsManifest(v1) {
		t.Fatal("IsManifest(SMN1) = false: tooling would misreport the file as a fragment")
	}
	if _, err := DecodeManifestInfo(v1); !errors.Is(err, fragment.ErrCorrupt) {
		t.Fatalf("DecodeManifestInfo(SMN1): %v, want ErrCorrupt", err)
	}
	after, err := fs.ReadFile("t/" + manifestName)
	if err != nil || !bytes.Equal(after, v1) {
		t.Fatalf("rejected Open modified the manifest (err %v)", err)
	}
}

// fixtureOps replays the history the fixtures under testdata were
// written with, at checkpoint cadence 3: two writes and a delete fold
// into MANIFEST, then a third write stays in MANIFEST.LOG — and, for
// testdata/smn2 (tail), a second delete beside it. No Close — that
// would fold the log. batched sends each run of writes as one
// WriteBatch instead of a Write per fragment.
func fixtureOps(t *testing.T, fs fsim.FS, kind core.Kind, tail, batched bool) *Store {
	t.Helper()
	st, err := Create(fs, "t", kind, tensor.Shape{16, 16}, WithManifestCheckpointEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	batch := func(vals []float64, pts ...[2]uint64) Batch {
		c := tensor.NewCoords(2, 0)
		for _, p := range pts {
			c.Append(p[0], p[1])
		}
		return Batch{Coords: c, Values: vals}
	}
	write := func(batches ...Batch) {
		if batched {
			if _, err := st.WriteBatch(batches, 2); err != nil {
				t.Fatal(err)
			}
			return
		}
		for _, b := range batches {
			if _, err := st.Write(b.Coords, b.Values); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(start, size []uint64) {
		r, err := tensor.NewRegion(st.Shape(), start, size)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.DeleteRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	write(batch([]float64{1.5, -2.25, 42}, [2]uint64{1, 2}, [2]uint64{3, 4}, [2]uint64{7, 7}),
		batch([]float64{9, 5, 6}, [2]uint64{3, 4}, [2]uint64{10, 12}, [2]uint64{15, 0}))
	del([]uint64{0, 0}, []uint64{2, 4})
	write(batch([]float64{7, 8}, [2]uint64{1, 2}, [2]uint64{8, 8}))
	if tail {
		del([]uint64{10, 10}, []uint64{4, 4})
	}
	return st
}

// TestManifestFixtureStable pins the bytes WRITE leaves on disk against
// fixtures the parent commits wrote: testdata/smn2 (CSF, written before
// the SMN1 / fragment v1-v2 decoders were retired) and
// testdata/write-kinds/<kind> for every registered organization
// (written by Store.Write before it became the one-batch spelling of
// the ingest pipeline) — an SMN2 MANIFEST, an SML1 MANIFEST.LOG and
// the three fragment files beside them. The same history, through
// Write and through WriteBatch, must reproduce every file byte for
// byte, and the fixture must open and read back that history's live
// cells.
func TestManifestFixtureStable(t *testing.T) {
	type fixture struct {
		dir  string
		kind core.Kind
		tail bool
	}
	fixtures := []fixture{{dir: "smn2", kind: core.CSF, tail: true}}
	for _, f := range core.Registered() {
		fixtures = append(fixtures, fixture{dir: filepath.Join("write-kinds", f.Kind().String()), kind: f.Kind()})
	}
	for _, fx := range fixtures {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", fx.dir, batched), func(t *testing.T) {
				checkManifestFixture(t, fx.dir, fx.kind, fx.tail, batched)
			})
		}
	}
}

func checkManifestFixture(t *testing.T, dir string, kind core.Kind, tail, batched bool) {
	names := []string{manifestName, manifestLogName, "frag-000000", "frag-000001", "frag-000003"}
	fresh, loaded := newSim(t), newSim(t)
	writer := fixtureOps(t, fresh, kind, tail, batched)
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join("testdata", dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.ReadFile("t/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the fixture:\n got %x\nwant %x", name, got, want)
		}
		if err := loaded.WriteFile("t/"+name, want); err != nil {
			t.Fatal(err)
		}
	}
	if written, _ := fresh.List("t/"); len(written) != len(names) {
		t.Errorf("history wrote %v, fixture holds %v", written, names)
	}

	st, err := Open(loaded, "t")
	if err != nil {
		t.Fatalf("fixture failed to open: %v", err)
	}
	wantFrags, wantLog := 4, 1
	live, wantVals := []uint64{1, 2, 3, 4, 7, 7, 8, 8, 10, 12, 15, 0}, []float64{7, 9, 42, 8, 5, 6}
	if tail { // the second delete: one more record, (10, 12) dead
		wantFrags, wantLog = 5, 2
		live, wantVals = []uint64{1, 2, 3, 4, 7, 7, 8, 8, 15, 0}, []float64{7, 9, 42, 8, 6}
	}
	wantCoords := tensor.NewCoords(2, 0)
	wantCoords.AppendFlat(live)
	if st.Fragments() != wantFrags || st.logRecords != wantLog {
		t.Fatalf("fixture opened with %d fragments, %d log records; want %d and %d", st.Fragments(), st.logRecords, wantFrags, wantLog)
	}
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if !coords.Equal(wantCoords) || !reflect.DeepEqual(vals, wantVals) {
		t.Fatalf("fixture reads back %v = %v", coords, vals)
	}
	// Folding the replayed log gives the checkpoint the writing handle
	// folds: the checkpoint is a function of the state alone.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replayed, _ := loaded.ReadFile("t/" + manifestName)
	written, _ := fresh.ReadFile("t/" + manifestName)
	if len(replayed) == 0 || !bytes.Equal(replayed, written) {
		t.Fatalf("checkpoint after replay (%d bytes) differs from the writer's (%d bytes)", len(replayed), len(written))
	}
}

// TestOpenRejectsStaleIndexSection: a checkpoint whose index section
// disagrees with its fragment list (hand-corrupted) must still open —
// the section is discarded and the index rebuilt.
func TestOpenRejectsStaleIndexSection(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, tensor.Shape{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	writeBand(t, st, 0)
	writeBand(t, st, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode with an index section claiming the wrong fragment count.
	wrong := buildFragIndex(tensor.Shape{16, 16}, m.frags)
	wrong.n = len(m.frags) + 7
	body := buf.NewWriter(128)
	wrong.encode(body)
	tail := buf.NewWriter(64)
	tail.U8(1)
	tail.Bytes32(body.Bytes())
	out := append(append([]byte(nil), data[:indexSectionOffset(data)]...), tail.Bytes()...)
	if err := fs.WriteFile("t/"+manifestName, out); err != nil {
		t.Fatal(err)
	}

	st, err = Open(fs, "t")
	if err != nil {
		t.Fatalf("store with stale index section failed to open: %v", err)
	}
	if st.cur.index.n != len(st.frags) {
		t.Fatalf("rebuilt index covers %d fragments, store has %d", st.cur.index.n, len(st.frags))
	}
}

// indexSectionOffset finds where the trailing index section starts in
// an SMN2 checkpoint by re-walking the fragment entries.
func indexSectionOffset(data []byte) int {
	r := buf.NewReader(data)
	r.U32()
	r.U8()
	r.U8()
	dims := int(r.U16())
	r.RawU64s(uint64(dims))
	r.U64()
	count := r.U64()
	for i := uint64(0); i < count; i++ {
		r.Bytes32()
		r.U64()
		r.U64()
		r.RawU64s(uint64(dims))
		r.RawU64s(uint64(dims))
		flags := r.U8()
		if flags&1 != 0 {
			r.RawU64s(uint64(dims))
			r.RawU64s(uint64(dims))
		}
		if flags&2 != 0 {
			r.Bytes32()
		}
	}
	return len(data) - r.Remaining()
}
