package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// requireSameResult asserts two read results are byte-identical:
// same points in the same order with bitwise-equal values.
func requireSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Coords.Len() != b.Coords.Len() {
		t.Fatalf("%s: %d points with index, %d without", label, a.Coords.Len(), b.Coords.Len())
	}
	for i, n := 0, a.Coords.Len(); i < n; i++ {
		if !reflect.DeepEqual(a.Coords.At(i), b.Coords.At(i)) {
			t.Fatalf("%s: point %d is %v with index, %v without", label, i, a.Coords.At(i), b.Coords.At(i))
		}
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("%s: value %d is %x with index, %x without", label, i,
				math.Float64bits(a.Values[i]), math.Float64bits(b.Values[i]))
		}
	}
}

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

// TestDifferentialIndexKnob is the acceptance property of the one READ
// loop over its whole input space: Strategy × Workers × {probe, as-of
// probe, region}, with the fragment index on and off, across all
// organization kinds, over a store with overwrites, tombstones, a
// checkpoint (persisted index section), and a replayed log suffix.
// Every valid combination must return exactly the map oracle's cells —
// hence byte-identical results across strategies, worker counts and the
// index knob — and report the same fragment accounting whatever the
// worker count.
func TestDifferentialIndexKnob(t *testing.T) {
	shape := tensor.Shape{24, 24, 24}
	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	kinds := append(core.PaperKinds(), core.COOSorted, core.BCOO)
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
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
			// Mutations after the checkpoint live in the delta log: the
			// index-on handle must extend the persisted grid over them.
			del([]uint64{12, 12, 0}, []uint64{6, 6, 24})
			write()
			nfrags := len(st.frags)
			if nfrags != len(versions)-1 {
				t.Fatalf("store has %d fragments, oracle %d versions", nfrags, len(versions)-1)
			}

			on, err := Open(fs, "t", WithFragmentIndex(true))
			if err != nil {
				t.Fatal(err)
			}
			off, err := Open(fs, "t", WithFragmentIndex(false))
			if err != nil {
				t.Fatal(err)
			}
			if on.cur.index == nil {
				t.Fatal("index-on handle published no index")
			}
			if on.cur.index.n != nfrags {
				t.Fatalf("index covers %d fragments, store has %d", on.cur.index.n, nfrags)
			}
			if off.cur.index != nil {
				t.Fatal("index-off handle published an index")
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
				for _, strategy := range []Strategy{StrategyDefault, StrategyScan, StrategyAuto} {
					for hi, handle := range []*Store{on, off} {
						var serial *ReadReport
						for _, workers := range []int{0, 1, 4} {
							req := tg.req
							req.Strategy, req.Workers = strategy, workers
							label := fmt.Sprintf("%s/%v/index=%v/workers=%d", tg.name, strategy, hi == 0, workers)
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

func TestFragmentIndexEnvKnob(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, tensor.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	writeBand(t, st, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	t.Setenv(fragIndexEnv, "off")
	st, err = Open(fs, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st.cur.index != nil {
		t.Fatal("SPARSEART_FRAGINDEX=off still published an index")
	}

	// An explicit option wins over the environment.
	st, err = Open(fs, "t", WithFragmentIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	if st.cur.index == nil {
		t.Fatal("WithFragmentIndex(true) lost to the environment")
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
	st, err := Create(fs, "t", core.Linear, shape, WithObs(reg), WithFragmentIndex(true))
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

	// With the index off, the filter layer is off too: no new skips.
	st2, err := Open(fs, "t", WithFragmentIndex(false), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	probe = tensor.NewCoords(3, 0)
	probe.Append(32, 32, 32)
	if _, _, err := readProbe(st2, probe); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters[key]; n != 2 {
		t.Fatalf("store.filter.skipped = %d with index off, want 2 (unchanged)", n)
	}
}

// encodeManifestV1 re-encodes a decoded manifest in the legacy SMN1
// layout: no flags bit 1, no filter blobs, no index section.
func encodeManifestV1(m *manifestState) []byte {
	w := buf.NewWriter(256)
	w.U32(manifestMagic)
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

// TestOpenLegacyManifestV1 is the compatibility fixture: a store whose
// checkpoint predates the index and filter sections must open cleanly,
// rebuild the index from the fragment list, treat every fragment as
// filterless ("maybe"), and serve identical data. The next checkpoint
// upgrades it to SMN2.
func TestOpenLegacyManifestV1(t *testing.T) {
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
	full, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := readRegion(st, full, StrategyDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the checkpoint in the legacy format.
	data, err := fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.version != 2 || m.index == nil {
		t.Fatalf("fresh checkpoint: version %d, index %v — expected SMN2 with index", m.version, m.index != nil)
	}
	if err := fs.WriteFile("t/"+manifestName, encodeManifestV1(m)); err != nil {
		t.Fatal(err)
	}

	st, err = Open(fs, "t", WithFragmentIndex(true))
	if err != nil {
		t.Fatalf("legacy manifest failed to open: %v", err)
	}
	if st.cur.index == nil {
		t.Fatal("legacy store published no index — rebuild-on-open missing")
	}
	for _, fr := range st.frags {
		if fr.filter != nil {
			t.Fatalf("legacy fragment %s grew a filter out of nowhere", fr.name)
		}
	}
	got, _, err := readRegion(st, full, StrategyDefault)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "legacy ReadRegion", got, want)

	// One more write, then Close folds a fresh checkpoint: the store is
	// silently upgraded to SMN2 with an index section.
	c := tensor.NewCoords(2, 0)
	c.Append(8, 8)
	if _, err := st.Write(c, []float64{9}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err = decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.version != 2 || m.index == nil {
		t.Fatalf("post-upgrade checkpoint: version %d, index %v — want SMN2 with index", m.version, m.index != nil)
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

	st, err = Open(fs, "t", WithFragmentIndex(true))
	if err != nil {
		t.Fatalf("store with stale index section failed to open: %v", err)
	}
	if st.cur.index == nil {
		t.Fatal("stale section: index not rebuilt")
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
