package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sparseart/internal/obs"
)

// The traced run is separate from the end-to-end run and never feeds
// it. One client drives, in turn, three fleets over the same stores:
//
//	seams    timedBackend around router and shards, timedFS under the
//	         shards, no registries: spans, the layered budget, fsim.*
//	counters the program's own obs registries enabled: fragcache,
//	         compaction, GC and back-pressure counters
//	plain    nothing added: the baseline both overheads are taken
//	         against, and the fleet the open-loop ladder runs on
//
// Spans and registries are kept apart because enabling the store's
// registry alone adds tens of microseconds to a probe, which would be
// charged to the store's self time.

// counter sums a registry counter over its label sets; exact reads the
// unlabeled series only (fragcache keeps a total beside per-tile twins).
func counter(snap *obs.Snapshot, family string, exact bool) float64 {
	var n int64
	for name, v := range snap.Counters {
		if name == family || (!exact && strings.HasPrefix(name, family+"{")) {
			n += v
		}
	}
	return float64(n)
}

// watch samples the gauges that only mean something as a maximum,
// until stop is closed.
func watch(fl *fleet, stop <-chan struct{}, inflightMax, gcPendingMax *int64) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			*inflightMax = max(*inflightMax, fl.routerReg.Gauge("serve.inflight").Value())
			for _, sh := range fl.shards {
				*inflightMax = max(*inflightMax, sh.reg.Gauge("serve.inflight").Value())
				*gcPendingMax = max(*gcPendingMax, sh.reg.Gauge("store.gc.pending", "kind", sh.store.Kind().String()).Value())
			}
		}
	}
}

// tracedRun carries the traced run's state between its phases.
type tracedRun struct {
	*env
	dir       string
	fl        *fleet
	warm      time.Duration // closed-loop warm-up before each phase
	out       map[string]float64
	layers    []layerShare
	attempted int
	failed    int
}

// swap closes the current fleet and boots the next one over the same
// stores, warmed like the workload wants it.
func (t *tracedRun) swap(withObs bool) error {
	if t.fl != nil {
		fl := t.fl
		t.fl = nil
		if err := fl.Close(); err != nil {
			return err
		}
	}
	var err error
	if t.fl, err = t.reopen(t.dir, nil, withObs, clients); err != nil {
		return err
	}
	return t.warmUp()
}

func (t *tracedRun) warmUp() error {
	if t.workload == "point_wire" || t.workload == "kernel_scan" {
		if err := t.pretouch(t.fl); err != nil {
			return err
		}
	}
	t.count(t.drive(t.fl, t.dir, 1, 0, t.warm, nil, nil).samples)
	return nil
}

// count adds closed-loop samples to the run's totals.
func (t *tracedRun) count(samples []sample) {
	t.attempted += len(samples)
	t.failed += failures(samples, 0)
}

// seams is the first phase: spans around every layer boundary the
// benchmark can reach from outside.
func (t *tracedRun) seams(dur time.Duration, traceOut string) (p50 float64, last opStream, err error) {
	rec := t.fl.shards[0].fs.rec
	fs0 := t.fl.fsCounts()
	rec.on.Store(true)
	load := t.drive(t.fl, t.dir, 1, 0, dur, rec, &t.stats)
	rec.on.Store(false)
	spans := rec.take()
	t.count(load.samples)
	fs := t.fl.fsCounts().plus(fs0, -1)
	ops := float64(max(len(load.samples), 1))
	out := t.out
	out["fsim.read_us"] = float64(fs.ReadNs) / 1e3 / ops
	out["fsim.read_ops"] = float64(fs.ReadOps) / ops
	out["fsim.read_kb"] = float64(fs.BytesRead) / 1024 / ops
	out["fsim.write_us"] = float64(fs.WriteNs) / 1e3 / ops
	out["fsim.write_ops"] = float64(fs.WriteOps) / ops
	out["fsim.write_kb"] = float64(fs.BytesWritten) / 1024 / ops
	out["fsim.opens"] = float64(fs.Opens) / ops
	out["fsim.write_amp"] = float64(t.written+t.fl.fsCounts().BytesWritten) / (float64(t.userPoints()) * float64(8*len(t.sc.Shape)+8))

	if st := t.stats; st.queries > 0 {
		out["store.fragments_per_query"] = float64(st.fragments) / float64(st.queries)
		out["store.index.candidates_per_query"] = float64(st.candidates) / float64(st.queries)
		if st.candidates > 0 {
			out["store.filter.skip_rate"] = float64(st.filterSkipped) / float64(st.candidates)
		}
	} else if st.kernels > 0 {
		out["store.fragments_per_query"] = float64(st.kernelFragments) / float64(st.kernels)
		if seen := st.kernelFragments + st.kernelSkipped; seen > 0 {
			out["store.filter.skip_rate"] = float64(st.kernelSkipped) / float64(seen)
		}
	}

	// The layered budget: every request's time split so that the rows
	// sum to e2e exactly.
	bds := breakdowns(spans)
	var self [levelCount]float64
	var e2e, fanout float64
	shardSelf := map[string][]float64{}
	for _, b := range bds {
		e2e += float64(b.E2E)
		fanout += float64(b.Shards)
		for l := range self {
			self[l] += float64(b.Self[l])
		}
		for _, s := range b.ShardSelf {
			shardSelf[b.Op] = append(shardSelf[b.Op], float64(s)/1e3)
		}
	}
	n := float64(max(len(bds), 1))
	out["serve.client_hop_us"] = self[levelE2E] / 1e3 / n
	out["serve.router_self_us"] = self[levelRouter] / 1e3 / n
	out["serve.router_fanout"] = fanout / n
	for op, name := range map[string]string{"query": "store.query_self_us", "kernel": "store.kernel_self_us", "ingest": "store.ingest_self_us", "delete": "store.delete_self_us"} {
		if v := shardSelf[op]; len(v) > 0 {
			sum := 0.0
			for _, x := range v {
				sum += x
			}
			out[name] = sum / float64(len(v))
		}
	}
	if e2e > 0 {
		hop := self[levelE2E] + self[levelRouter]
		t.layers = []layerShare{
			{"wire+serve (client hop, router, shard hop)", hop / 1e3 / n, 100 * hop / e2e},
			{"store (with fragcache, fragment, core)", self[levelShard] / 1e3 / n, 100 * self[levelShard] / e2e},
			{"fsim", self[levelFS] / 1e3 / n, 100 * self[levelFS] / e2e},
			{"e2e", e2e / 1e3 / n, 100},
		}
		out["trace.share.wire_serve_pct"] = t.layers[0].SharePc
		out["trace.share.store_pct"] = t.layers[1].SharePc
		out["trace.share.fsim_pct"] = t.layers[2].SharePc
	}
	out["load.samples"] = float64(len(load.samples))
	gaps := make([]float64, len(load.samples))
	for i, s := range load.samples {
		gaps[i] = float64(s.gap) / 1e6
	}
	sort.Float64s(gaps)
	out["load.late_ms_p99"] = percentile(gaps, 99)
	out["load.p99_ms"] = percentile(latencies(load.samples), 99)
	out["load.gc_pause_ms"] = float64(load.res[len(load.res)-1].gcPauseNs-load.res[0].gcPauseNs) / 1e6
	if traceOut != "" {
		if err := writeChromeTrace(traceOut, spans, 200000); err != nil {
			return 0, nil, err
		}
	}
	return percentile(latencies(load.samples), 50), load.streams[0], nil
}

// counters is the second phase: the program's own registries.
func (t *tracedRun) counters(dur time.Duration) (p50 float64) {
	fl := t.fl
	ep0 := fl.epochs()
	before := make([]*obs.Snapshot, len(fl.shards))
	for i, sh := range fl.shards {
		before[i] = sh.reg.Snapshot()
	}
	var inflightMax, gcPendingMax int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		watch(fl, stop, &inflightMax, &gcPendingMax)
	}()
	load := t.drive(fl, t.dir, 1, 0, dur, nil, nil)
	close(stop)
	<-stopped
	t.count(load.samples)

	var hits, misses, evictions, resident, compactions, overloaded float64
	for i, sh := range fl.shards {
		d := obs.Delta(before[i], sh.reg.Snapshot())
		hits += counter(d, "fragcache.hits", true)
		misses += counter(d, "fragcache.misses", true) + counter(d, "fragcache.coalesced", true)
		evictions += counter(d, "fragcache.evictions", true)
		compactions += counter(d, "store.compact.count", false)
		overloaded += counter(d, "serve.rejected", false)
		if c := sh.store.SharedCache(); c != nil {
			resident += float64(c.SizeBytes()) / (1 << 20)
		}
	}
	overloaded += counter(fl.routerReg.Snapshot(), "serve.rejected", false)
	out := t.out
	if hits+misses > 0 {
		out["fragcache.hit_rate"] = hits / (hits + misses)
	}
	ops := float64(max(len(load.samples), 1))
	out["fragcache.evictions"] = evictions / ops
	out["fragcache.resident_mb"] = resident
	out["store.compact.runs"] = compactions
	out["store.gc.pending_max"] = float64(gcPendingMax)
	out["store.epochs"] = float64(fl.epochs()-ep0) / ops
	out["serve.overloaded"] = overloaded
	out["serve.inflight_max"] = float64(inflightMax)
	return percentile(latencies(load.samples), 50)
}

// ladder is the open-loop diagnostic: 1-point probes at fixed rates,
// timed from when each was due. A rate is sustained when p99 stays
// within openLimit, nothing is refused or wrong, and the backlog at the
// end is no more than twice what the limit allows in flight. Refusals
// are this test's expected way of saying "too fast" and do not fail the
// run; wrong answers do.
func (t *tracedRun) ladder(rung time.Duration) {
	for _, rate := range openRates {
		r := openLoop(func() opStream { return t.probes(t.fl, 0, t.nextSeed()) }, rate, rung, nil, time.Now())
		p99 := percentile(latencies(r.samples), 99)
		wrong, refused := 0, 0
		for _, s := range r.samples {
			switch {
			case s.refused:
				refused++
			case !s.ok:
				wrong++
			}
		}
		t.attempted, t.failed = t.attempted+len(r.samples)-refused, t.failed+wrong
		t.out[fmt.Sprintf("load.open.r%d.p99_ms", rate)] = p99
		backlog := max(4, int(2*float64(rate)*openLimit.Seconds()))
		if p99 <= float64(openLimit)/1e6 && wrong+refused == 0 && r.inflightEnd <= backlog {
			t.out["load.open.max_rate_ok"] = float64(rate)
		}
	}
}

// runTraced produces every per-layer metric of one workload.
func runTraced(cfg runConfig) (*runResult, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.root)
	total := time.Duration(cfg.seconds * float64(time.Second))
	t := &tracedRun{env: e, dir: filepath.Join(cfg.root, "traced"), warm: total / 15, out: map[string]float64{}}
	if e.workload == "region_cold" {
		t.warm = total / 6 // the small cache needs time to reach its steady hit rate
	}
	for _, d := range perLayerMetrics {
		t.out[d.Name] = 0
	}
	defer func() {
		if t.fl != nil {
			_ = t.fl.Close()
		}
	}()

	if t.fl, err = e.setUp(t.dir, newRecorder(), false, 1); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := t.warmUp(); err != nil {
		return nil, err
	}
	seamsP50, last, err := t.seams(total*3/10, cfg.traceOut)
	if err != nil {
		return nil, err
	}
	if err := t.swap(true); err != nil {
		return nil, fmt.Errorf("reopen with registries: %w", err)
	}
	obsP50 := t.counters(total / 5)
	if err := t.swap(false); err != nil {
		return nil, fmt.Errorf("reopen plain: %w", err)
	}
	plain := t.drive(t.fl, t.dir, 1, 0, total/5, nil, nil)
	t.count(plain.samples)
	if p50 := percentile(latencies(plain.samples), 50); p50 > 0 {
		t.out["trace.overhead_pct"] = 100 * (seamsP50 - p50) / p50
		t.out["obs.overhead_pct"] = 100 * (obsP50 - p50) / p50
	}
	if e.mutable() {
		// The paced reader beside the writer, as in the end-to-end run.
		mixed := t.drive(t.fl, t.dir, clients, 0, total/10, nil, nil)
		t.count(mixed.samples)
		t.attempted, t.failed = t.attempted+len(mixed.reader), t.failed+failures(mixed.reader, readerLimit)
		t.out["load.reader_p99_ms"] = percentile(latencies(mixed.reader), 99)
	}
	t.ladder(total / 5)
	fa, ff := e.finish(t.fl)
	t.attempted, t.failed = t.attempted+fa, t.failed+ff
	t.out["load.failed_share"] = float64(t.failed) / float64(max(t.attempted, 1))
	fl := t.fl
	t.fl = nil
	if err := fl.Close(); err != nil {
		return nil, err
	}

	// The layers called directly, on the workload's own messages and
	// fragments.
	var errs []error
	if ws, ok := last.(interface{ wireSample() wireSample }); ok {
		errs = append(errs, wireMetrics(cfg.micro, ws.wireSample(), e.samplePoints(), t.out))
	}
	errs = append(errs, nullHop(cfg.micro, len(e.sc.Shape), t.out))
	frag, err := fragmentMetrics(cfg.micro, t.dir, t.out)
	if err == nil {
		err = coreMetrics(cfg.micro, frag, t.out)
	}
	if err := errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}

	m := make(map[string]summary, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.Name] = summary{Value: t.out[d.Name], Unit: d.Unit}
	}
	return &runResult{
		Workload: cfg.workload, Trace: true, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m, Sizes: e.sizes, Layers: t.layers,
	}, nil
}
