package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// ingestBatches builds n deterministic disjoint-ish batches for a shape.
func ingestBatches(rng *rand.Rand, shape tensor.Shape, n, points int) []Batch {
	out := make([]Batch, n)
	for i := range out {
		c, v := randomPoints(rng, shape, points)
		out[i] = Batch{Coords: c, Values: v}
	}
	return out
}

// TestWriteBatchMatchesSerialWrites is the differential property test
// behind WriteBatch's determinism contract: for every paper
// organization, with the reader cache off and on, a WriteBatch must
// leave the file system byte-identical to a loop of Write — same
// names, same fragment bytes, same manifest state — and answer reads
// identically. Run under -race this also exercises the worker pool for
// data races.
func TestWriteBatchMatchesSerialWrites(t *testing.T) {
	shape := tensor.Shape{24, 24, 24, 24}
	region, err := tensor.NewRegion(shape, []uint64{4, 4, 4, 4}, []uint64{12, 12, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range core.PaperKinds() {
		for _, budget := range []int64{0, 1 << 24} {
			t.Run(fmt.Sprintf("%v/cache=%d", kind, budget), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				batches := ingestBatches(rng, shape, 6, 400)
				fsA, fsB := newSim(t), newSim(t)
				a, err := Create(fsA, "t", kind, shape, WithReaderCache(budget))
				if err != nil {
					t.Fatal(err)
				}
				b, err := Create(fsB, "t", kind, shape, WithReaderCache(budget))
				if err != nil {
					t.Fatal(err)
				}
				for _, ba := range batches {
					if _, err := a.Write(ba.Coords, ba.Values); err != nil {
						t.Fatal(err)
					}
				}
				reps, err := b.WriteBatch(batches, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(reps) != len(batches) {
					t.Fatalf("%d reports for %d batches", len(reps), len(batches))
				}
				for i, rep := range reps {
					if rep.NNZ != batches[i].Coords.Len() || rep.Name == "" || rep.Bytes <= 0 {
						t.Fatalf("report %d: %+v", i, rep)
					}
				}
				namesA, _ := fsA.List("")
				namesB, _ := fsB.List("")
				if len(namesA) != len(namesB) {
					t.Fatalf("file sets differ:\n serial %v\n batch  %v", namesA, namesB)
				}
				for i, n := range namesA {
					if namesB[i] != n {
						t.Fatalf("file name %q vs %q", n, namesB[i])
					}
					da, _ := fsA.ReadFile(n)
					db, _ := fsB.ReadFile(n)
					if !bytes.Equal(da, db) {
						t.Fatalf("%s differs: %d vs %d bytes", n, len(da), len(db))
					}
				}
				resA, _, err := readProbe(a, region.Coords())
				if err != nil {
					t.Fatal(err)
				}
				resB, _, err := readProbe(b, region.Coords())
				if err != nil {
					t.Fatal(err)
				}
				if resA.Coords.Len() != resB.Coords.Len() {
					t.Fatalf("read found %d vs %d cells", resA.Coords.Len(), resB.Coords.Len())
				}
				for i := 0; i < resA.Coords.Len(); i++ {
					if resA.Values[i] != resB.Values[i] {
						t.Fatalf("value %d: %v vs %v", i, resA.Values[i], resB.Values[i])
					}
				}
			})
		}
	}
}

func TestWriteBatchValidation(t *testing.T) {
	shape := tensor.Shape{8, 8}
	st, err := Create(newSim(t), "t", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	if reps, err := st.WriteBatch(nil, 4); err != nil || reps != nil {
		t.Fatalf("empty batch list: %v, %v", reps, err)
	}
	c := tensor.NewCoords(2, 1)
	c.Append(1, 2)
	if _, err := st.WriteBatch([]Batch{{Coords: c, Values: []float64{1, 2}}}, 1); err == nil {
		t.Fatal("value-length mismatch accepted")
	}
	c3 := tensor.NewCoords(3, 1)
	c3.Append(1, 2, 3)
	if _, err := st.WriteBatch([]Batch{{Coords: c3, Values: []float64{1}}}, 1); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if st.Fragments() != 0 {
		t.Fatalf("rejected batches left %d fragments", st.Fragments())
	}
	// A batch of no points commits nothing, through either entry point.
	empty := tensor.NewCoords(2, 0)
	if rep, err := st.Write(empty, nil); err != nil || *rep != (WriteReport{}) {
		t.Fatalf("empty Write: %+v, %v", rep, err)
	}
	reps, err := st.WriteBatch([]Batch{{Coords: empty}, {Coords: empty}}, 2)
	if err != nil || len(reps) != 2 || *reps[0] != (WriteReport{}) || *reps[1] != (WriteReport{}) {
		t.Fatalf("empty batches: %v, %v", reps, err)
	}
	if st.Fragments() != 0 || st.Epoch() != 0 {
		t.Fatalf("empty batches left %d fragments at epoch %d", st.Fragments(), st.Epoch())
	}
}

// TestWriteBatchPartialFailure: when a mid-batch commit fails, the
// prefix committed before the failure stays durable and visible —
// exactly as if that prefix of serial Writes had run — and nothing of
// the failed or following batches surfaces.
func TestWriteBatchPartialFailure(t *testing.T) {
	shape := tensor.Shape{16, 16, 16}
	sim := newSim(t)
	ff := fsim.NewFaultFS(sim)
	st, err := Create(ff, "t", core.GCSR, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	batches := ingestBatches(rng, shape, 4, 100)
	ff.FailOn = "frag-000002"
	if _, err := st.WriteBatch(batches, 2); err == nil {
		t.Fatal("injected commit failure not reported")
	}
	ff.FailOn = ""
	if st.Fragments() != 2 {
		t.Fatalf("in-memory fragments = %d, want the committed prefix of 2", st.Fragments())
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 2 {
		t.Fatalf("reopened fragments = %d, want 2", st2.Fragments())
	}
	for i := 0; i < 2; i++ {
		res, _, err := readProbe(st2, batches[i].Coords)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coords.Len() != batches[i].Coords.Len() {
			t.Fatalf("batch %d: %d of %d cells visible", i, res.Coords.Len(), batches[i].Coords.Len())
		}
	}
}

// TestManifestLogCrashAppend covers the "record never landed" crash:
// the fragment file is written but the manifest-log append fails. The
// write must report the error, and both the live handle and a fresh
// Open must agree the fragment does not exist.
func TestManifestLogCrashAppend(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	ff := fsim.NewFaultFS(sim)
	st, err := Create(ff, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	c1, v1 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c1, v1); err != nil {
		t.Fatal(err)
	}
	ff.FailOn = manifestLogName
	c2, v2 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c2, v2); err == nil {
		t.Fatal("write survived a failed manifest-log append")
	}
	ff.FailOn = ""
	if st.Fragments() != 1 {
		t.Fatalf("live handle sees %d fragments after rollback", st.Fragments())
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 1 {
		t.Fatalf("reopen sees %d fragments, want 1", st2.Fragments())
	}
	res, _, err := readProbe(st2, c1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != c1.Len() {
		t.Fatalf("surviving fragment: %d of %d cells", res.Coords.Len(), c1.Len())
	}
	// The store stays writable after the failure.
	if _, err := st.Write(c2, v2); err != nil {
		t.Fatal(err)
	}
	if st.Fragments() != 2 {
		t.Fatalf("retry: %d fragments", st.Fragments())
	}
}

// TestManifestLogCrashCheckpoint covers the "record landed, checkpoint
// died" crash under checkpoint-every-1: the log record is durable
// before the fold starts, so even though the write reports an error, a
// fresh Open replays the record and sees the fragment fully.
func TestManifestLogCrashCheckpoint(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	ff := fsim.NewFaultFS(sim)
	st, err := Create(ff, "t", core.Linear, shape, WithManifestCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	c1, v1 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c1, v1); err != nil {
		t.Fatal(err)
	}
	// Let the fragment write and the log append through, then fail the
	// checkpoint's manifest rewrite (the third FS operation of Write).
	ff.FailAfter = ff.Ops() + 2
	c2, v2 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c2, v2); err == nil {
		t.Fatal("write survived a failed checkpoint")
	}
	ff.FailAfter = -1
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 2 {
		t.Fatalf("reopen sees %d fragments, want 2 (record was durable)", st2.Fragments())
	}
	res, _, err := readProbe(st2, c2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != c2.Len() {
		t.Fatalf("replayed fragment: %d of %d cells", res.Coords.Len(), c2.Len())
	}
}

// TestManifestLogTornTail covers the partial-append crash: a log whose
// last record is cut mid-frame. Open must replay the clean prefix,
// truncate the tail away, and leave the store fully writable.
func TestManifestLogTornTail(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	st, err := Create(sim, "t", core.Linear, shape, WithManifestCheckpointEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	c1, v1 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c1, v1); err != nil {
		t.Fatal(err)
	}
	oneRecord, err := sim.Size("t/" + manifestLogName)
	if err != nil {
		t.Fatal(err)
	}
	c2, v2 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c2, v2); err != nil {
		t.Fatal(err)
	}
	data, err := sim.ReadFile("t/" + manifestLogName)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteFile("t/"+manifestLogName, data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 1 {
		t.Fatalf("torn log replayed %d fragments, want 1", st2.Fragments())
	}
	if n, _ := sim.Size("t/" + manifestLogName); n != oneRecord {
		t.Fatalf("repaired log is %d bytes, want the %d-byte clean prefix", n, oneRecord)
	}
	// The partially-committed fragment is invisible; writing again reuses
	// its id and the store stays consistent.
	if _, err := st2.Write(c2, v2); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st3.Fragments() != 2 {
		t.Fatalf("after repair and rewrite: %d fragments", st3.Fragments())
	}
	res, _, err := readProbe(st3, c2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != c2.Len() {
		t.Fatalf("rewritten fragment: %d of %d cells", res.Coords.Len(), c2.Len())
	}
}

// TestManifestLogStaleRecords covers the interrupted fold: a crash
// after the new checkpoint is durable but before the old log is
// removed leaves records whose ids the checkpoint already covers.
// Replay must skip them without duplicating fragments.
func TestManifestLogStaleRecords(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	st, err := Create(sim, "t", core.Linear, shape, WithManifestCheckpointEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	c1, v1 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c1, v1); err != nil {
		t.Fatal(err)
	}
	c2, v2 := randomPoints(rng, shape, 20)
	if _, err := st.Write(c2, v2); err != nil {
		t.Fatal(err)
	}
	stale, err := sim.ReadFile("t/" + manifestLogName)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-fold log, as if Remove never happened.
	if err := sim.WriteFile("t/"+manifestLogName, stale); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 2 {
		t.Fatalf("stale replay produced %d fragments, want 2", st2.Fragments())
	}
	// A new write must continue the id sequence past the stale records.
	c3, v3 := randomPoints(rng, shape, 20)
	if _, err := st2.Write(c3, v3); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st3.Fragments() != 3 {
		t.Fatalf("after stale replay and write: %d fragments", st3.Fragments())
	}
	for _, probe := range []*tensor.Coords{c1, c2, c3} {
		res, _, err := readProbe(st3, probe)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coords.Len() != probe.Len() {
			t.Fatalf("read found %d of %d cells", res.Coords.Len(), probe.Len())
		}
	}
}

// TestManifestAdaptiveCheckpoint pins the amortized-O(1) policy: the
// log folds once it matches the checkpointed fragment count (floored
// at 16), so a long ingest checkpoints ever more rarely while Open
// always sees every fragment.
func TestManifestAdaptiveCheckpoint(t *testing.T) {
	shape := tensor.Shape{32, 32}
	sim := newSim(t)
	st, err := Create(sim, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	const writes = 40
	for i := 0; i < writes; i++ {
		c, v := randomPoints(rng, shape, 5)
		if _, err := st.Write(c, v); err != nil {
			t.Fatal(err)
		}
		bound := only(st).lastCkptFrags
		if bound < defaultCheckpointMin {
			bound = defaultCheckpointMin
		}
		if only(st).logRecords > bound {
			t.Fatalf("write %d: log has %d records, bound %d", i, only(st).logRecords, bound)
		}
	}
	if only(st).lastCkptFrags == 0 {
		t.Fatal("no checkpoint ever folded")
	}
	if only(st).lastCkptFrags == writes {
		t.Fatal("checkpointed on every write; adaptive cadence not in effect")
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != writes {
		t.Fatalf("reopen sees %d fragments, want %d", st2.Fragments(), writes)
	}
}

// TestManifestCheckpointEveryOne pins the worst-case cadence: with K=1
// every write folds immediately, so no log file survives a write.
func TestManifestCheckpointEveryOne(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	st, err := Create(sim, "t", core.Linear, shape, WithManifestCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		c, v := randomPoints(rng, shape, 10)
		if _, err := st.Write(c, v); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Size("t/" + manifestLogName); err == nil {
			t.Fatalf("write %d left a manifest log behind under K=1", i)
		}
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fragments() != 3 {
		t.Fatalf("reopen sees %d fragments", st2.Fragments())
	}
}

// TestManifestTombstoneThroughLog routes a DeleteRegion through the
// delta log and replays it on Open.
func TestManifestTombstoneThroughLog(t *testing.T) {
	shape := tensor.Shape{16, 16}
	sim := newSim(t)
	st, err := Create(sim, "t", core.Linear, shape, WithManifestCheckpointEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 2)
	c.Append(1, 1)
	c.Append(10, 10)
	if _, err := st.Write(c, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := readProbe(st2, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 1 {
		t.Fatalf("replayed tombstone left %d cells, want 1", res.Coords.Len())
	}
	if res.Values[0] != 2 {
		t.Fatalf("surviving value %v", res.Values[0])
	}
}

// TestOpenCheckpointWithoutLog: a checkpoint with no MANIFEST.LOG
// beside it — the state after every Close — opens and serves reads. The
// checkpoint is built here by hand, not via writeManifest, in the
// minimal SMN2 form (no filter blobs, no index section), so format
// drift fails the test.
func TestOpenCheckpointWithoutLog(t *testing.T) {
	shape := tensor.Shape{8, 8}
	sim := newSim(t)
	// Produce a real fragment file through the engine, then replace the
	// manifest with the hand-built checkpoint referencing it.
	st, err := Create(sim, "t", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 2)
	c.Append(1, 2)
	c.Append(3, 4)
	if _, err := st.Write(c, []float64{1.5, 2.5}); err != nil {
		t.Fatal(err)
	}
	fragBytes, err := sim.Size("t/frag-000000")
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	var m []byte
	m = le.AppendUint32(m, manifestMagicV2)
	m = append(m, uint8(core.COO), 0) // kind, codec None
	m = le.AppendUint16(m, 2)         // dims
	m = le.AppendUint64(m, 8)         // shape
	m = le.AppendUint64(m, 8)
	m = le.AppendUint64(m, 1) // nextID
	m = le.AppendUint64(m, 1) // fragment count
	name := "t/frag-000000"
	m = le.AppendUint32(m, uint32(len(name)))
	m = append(m, name...)
	m = le.AppendUint64(m, 2)                 // nnz
	m = le.AppendUint64(m, uint64(fragBytes)) // bytes
	m = le.AppendUint64(m, 1)                 // bbox min
	m = le.AppendUint64(m, 2)
	m = le.AppendUint64(m, 3) // bbox max
	m = le.AppendUint64(m, 4)
	m = append(m, 0) // flags: not a tombstone, no filter
	m = append(m, 0) // no index section
	if err := sim.WriteFile("t/MANIFEST", m); err != nil {
		t.Fatal(err)
	}
	// Drop the log the engine is accumulating: the checkpoint alone now
	// describes the store.
	sim.Remove("t/" + manifestLogName)
	st2, err := Open(sim, "t")
	if err != nil {
		t.Fatalf("log-less checkpoint rejected: %v", err)
	}
	if st2.Fragments() != 1 || st2.Kind() != core.COO {
		t.Fatalf("fixture store: frags=%d kind=%v", st2.Fragments(), st2.Kind())
	}
	res, _, err := readProbe(st2, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 2 || res.Values[0] != 1.5 || res.Values[1] != 2.5 {
		t.Fatalf("fixture read: %d cells, values %v", res.Coords.Len(), res.Values)
	}
	// The next write goes through a fresh log without disturbing the
	// checkpointed fragment.
	c2 := tensor.NewCoords(2, 1)
	c2.Append(7, 7)
	if _, err := st2.Write(c2, []float64{9}); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(sim, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st3.Fragments() != 2 {
		t.Fatalf("store has %d fragments after one more write", st3.Fragments())
	}
}
