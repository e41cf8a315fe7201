package store

import (
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// twoPoints is a minimal dataset for the fault-path metric tests.
func twoPoints() (*tensor.Coords, []float64) {
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)
	c.Append(3, 4)
	return c, []float64{1, 2}
}

// TestObsHappyPathMetrics: a successful write+read populates the
// registry's phase histograms and counters and closes every span.
func TestObsHappyPathMetrics(t *testing.T) {
	reg := obs.New()
	st, err := Create(fsim.NewPerlmutterSim(), "t", core.GCSR, tensor.Shape{8, 8}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	c, vals := twoPoints()
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readProbe(st, c); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	kind := core.GCSR.String()
	for _, name := range []string{
		"store.write.build", "store.write.reorg", "store.write.write", "store.write.others",
		obs.Name("store.write.build", "kind", kind),
		"store.read.io", "store.read.probe", "store.read.merge",
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s not populated", name)
		}
	}
	// One Write is one pass of the pipeline: one root span, one
	// observation per Table III phase, one manifest-log append (a group
	// of one).
	if got := snap.Histograms[obsWrite].Count; got != 1 {
		t.Errorf("%d %s root spans for one Write", got, obsWrite)
	}
	for _, phase := range []string{obsWriteBuild, obsWriteReorg, obsWriteWrite, obsWriteOthers} {
		if got := snap.Histograms[obs.Name(phase, "kind", kind)].Count; got != 1 {
			t.Errorf("%s{kind} has %d observations for one Write", phase, got)
		}
	}
	for _, name := range []string{"store.write.count", "store.manifest.log.appends", "store.manifest.group.flushes", "store.manifest.group.records"} {
		if got := snap.Counters[obs.Name(name, "kind", kind)]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if got := snap.Counters[obs.Name("store.read.probed", "kind", kind)]; got != 2 {
		t.Errorf("store.read.probed = %d, want 2", got)
	}
	if snap.InFlight != 0 {
		t.Errorf("%d spans still in flight after successful write+read", snap.InFlight)
	}
	if len(snap.Spans) == 0 {
		t.Error("no span events on the timeline")
	}
}

// TestWriteFaultCountedNoSpanLeak: an injected fragment-write failure
// must be counted by the fault layer AND by the store's error counter,
// and must not leave the write's phase spans open.
func TestWriteFaultCountedNoSpanLeak(t *testing.T) {
	reg := obs.New()
	fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
	fs.Obs = reg
	st, err := Create(fs, "t", core.GCSR, tensor.Shape{8, 8}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	fs.FailOn = "frag-"
	c, vals := twoPoints()
	if _, err := st.Write(c, vals); err == nil {
		t.Fatal("write with failing fragment file succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.Name("fsim.fault.injected", "op", "write")]; got < 1 {
		t.Errorf("fsim.fault.injected{op=write} = %d, want >= 1", got)
	}
	if got := snap.Counters[obs.Name("store.write.errors", "kind", core.GCSR.String())]; got != 1 {
		t.Errorf("store.write.errors = %d, want 1", got)
	}
	if snap.InFlight != 0 {
		t.Errorf("%d spans leaked by the failed write", snap.InFlight)
	}
}

// TestChunkedAndAutoSpanCoverage: the composite operations — the
// chunked store's Write/Read/DeleteRegion and the cost-model-driven
// ReadRegionAuto — each open a root span, feed the same-named latency
// histogram, and leak nothing.
func TestChunkedAndAutoSpanCoverage(t *testing.T) {
	reg := obs.New()
	ch, err := NewChunked(fsim.NewPerlmutterSim(), "t", core.GCSR,
		tensor.Shape{16, 16}, tensor.Shape{8, 8}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)
	c.Append(12, 12) // second tile
	vals := []float64{1, 2}
	if _, err := ch.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readProbe(ch, c); err != nil {
		t.Fatal(err)
	}
	region, err := tensor.NewRegion(tensor.Shape{16, 16}, []uint64{0, 0}, []uint64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}

	st, err := Create(fsim.NewPerlmutterSim(), "a", core.GCSR, tensor.Shape{8, 8}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	c2, vals2 := twoPoints()
	if _, err := st.Write(c2, vals2); err != nil {
		t.Fatal(err)
	}
	autoRegion, err := tensor.NewRegion(tensor.Shape{8, 8}, []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRegion(st, autoRegion, StrategyAuto); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		obsChunkedWrite, obsChunkedRead, obsChunkedDelete,
		obsRead, // ReadRegionAuto's root span (also fired by the tile reads)
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("span histogram %s not populated", name)
		}
	}
	if got := snap.Gauges[obs.Name("store.chunked.tiles", "kind", core.GCSR.String())]; got != 2 {
		t.Errorf("store.chunked.tiles = %d, want 2", got)
	}
	if snap.InFlight != 0 {
		t.Errorf("%d spans leaked by the composite operations", snap.InFlight)
	}
}

// TestReadFaultCountedNoSpanLeak: same contract on the read path, for
// every read entry point (point read, region scan, compact).
func TestReadFaultCountedNoSpanLeak(t *testing.T) {
	reg := obs.New()
	fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
	fs.Obs = reg
	st, err := Create(fs, "t", core.CSF, tensor.Shape{8, 8}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	c, vals := twoPoints()
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	c2 := tensor.NewCoords(2, 0)
	c2.Append(5, 5)
	if _, err := st.Write(c2, []float64{3}); err != nil {
		t.Fatal(err) // a second fragment so Compact has real work to do
	}
	fs.FailOn = "frag-"
	if _, _, err := readProbe(st, c); err == nil {
		t.Fatal("read with unreadable fragment succeeded")
	}
	region, err := tensor.NewRegion(tensor.Shape{8, 8}, []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRegion(st, region, StrategyScan); err == nil {
		t.Fatal("scan with unreadable fragment succeeded")
	}
	if _, err := st.Compact(); err == nil {
		t.Fatal("compact with unreadable fragment succeeded")
	}
	snap := reg.Snapshot()
	// Read paths now reach fragments through FS.Open (ranged I/O), so a
	// name-matched fault fires at the open.
	if got := snap.Counters[obs.Name("fsim.fault.injected", "op", "open")]; got < 2 {
		t.Errorf("fsim.fault.injected{op=open} = %d, want >= 2", got)
	}
	if got := snap.Counters[obs.Name("store.read.errors", "kind", core.CSF.String())]; got < 2 {
		t.Errorf("store.read.errors = %d, want >= 2", got)
	}
	if snap.InFlight != 0 {
		t.Errorf("%d spans leaked by the failed reads", snap.InFlight)
	}
}
