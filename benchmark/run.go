package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// Load shape. Closed loop: the callers are analysis jobs that wait for
// a reply, as in the paper's read benchmark.
const (
	clients = 2 // min(nproc, 2) on the 2-core reference box; fixed so results compare across machines
	// A metric's value is the median over the segments. Ten short ones
	// rather than five long ones: the reference box's speed swings from
	// second to second, and a median over more segments ignores more of
	// the slow ones.
	segmentCount = 10
	warmShare    = 0.2 // warm-up, as a share of the measured time
	setupRepeats = 3   // setup_s is the median over this many set-ups
	// A probe of ingest_mixed's reader counts as failed when it takes
	// longer than this, from the time it was due. The seed holds 50 ms at
	// p99 but not at the maximum: on two cores a compaction can keep both
	// busy for a scheduler quantum at each of a probe's hand-offs, and
	// when the virtual machine itself stalls for a few hundred
	// milliseconds every probe due in that time is late (timing from the
	// due time is what makes that visible). The limit is there to catch a
	// store that blocks its readers, not the host; the share of probes
	// over 50 ms is reported beside it.
	readerLimit  = time.Second
	readerTarget = 50 * time.Millisecond
	openLimit    = 5 * time.Millisecond
)

var openRates = []int{500, 1000, 2000}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // measured time
	sc       *scale
	root     string        // scratch directory; the run removes what it creates there
	repeats  int           // set-ups
	traceOut string        // traced run: where the Chrome trace goes ("" = nowhere)
	micro    time.Duration // traced run: time unit of the direct layer measurements
}

// env is a run's inputs and truth.
type env struct {
	runConfig
	data    *dataset      // read workloads
	oracle  *oracle       // == data.oracle for the read workloads
	ingest  *ingestState  // ingest_mixed
	writer  *ingestStream // ingest_mixed: the one writer, primed in set-up
	userNNZ int64         // read workloads: points ingested in set-up
	written int64         // traced run: bytes written by fleets already closed
	streams atomic.Uint64 // open-loop streams made so far (each gets its own seed)
	stats   opStats       // traced run: sums over the replies' reports
	sizes   map[string]float64
}

func (e *env) mutable() bool { return e.workload == "ingest_mixed" }

// newEnv generates the workload's inputs from the seed.
func newEnv(cfg runConfig) (*env, error) {
	e := &env{runConfig: cfg, sizes: map[string]float64{}}
	if e.mutable() {
		return e, e.resetIngest()
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ds, err := commonDataset(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	e.data, e.oracle = ds, ds.oracle
	return e, nil
}

// resetIngest gives ingest_mixed an empty oracle and writer state, as
// each set-up starts from an empty store.
func (e *env) resetIngest() error {
	if e.oracle == nil {
		o, err := newOracle(e.sc.Shape)
		if err != nil {
			return err
		}
		e.oracle = o
	}
	e.oracle.reset()
	pool, err := ingestPool(e.sc, e.seed)
	if err != nil {
		return err
	}
	e.ingest = &ingestState{sc: e.sc, pool: pool, band: e.sc.band()}
	return nil
}

// setUp builds the workload's store through the router and leaves a
// fleet ready to measure. Read workloads ingest the common dataset,
// close, and reopen with the workload's cache budget, so set-up time
// covers the real ingest path and the real open path. ingest_mixed
// boots an empty store and primes it with a few calls.
func (e *env) setUp(dir string, rec *recorder, withObs bool, nclients int) (*fleet, error) {
	ctx := context.Background()
	if e.mutable() {
		fl, err := bootFleet(fleetOpts{dir: dir, sc: e.sc, create: true, cache: defaultCache, compactAt: e.sc.CompactAt, clients: nclients, rec: rec, obs: withObs})
		if err != nil {
			return nil, err
		}
		e.writer = newIngestStream(fl.clients[0], e.ingest, e.oracle, e.seed)
		for i := 0; i < e.sc.PrimeCalls; i++ {
			e.writer.next()
			if err := e.writer.do(ctx); !e.writer.check(err) {
				_ = fl.Close()
				return nil, fmt.Errorf("priming call %d failed (error: %v)", i, err)
			}
		}
		return fl, nil
	}
	fl, err := bootFleet(fleetOpts{dir: dir, sc: e.sc, create: true, cache: defaultCache, clients: 1, rec: rec, obs: withObs})
	if err != nil {
		return nil, err
	}
	const group = 8
	for i := 0; i < len(e.data.batches); i += group {
		part := e.data.batches[i:min(i+group, len(e.data.batches))]
		reps, err := fl.clients[0].WriteBatch(ctx, part, 0)
		if err == nil && len(reps) != len(part) {
			err = fmt.Errorf("%d reports for %d batches", len(reps), len(part))
		}
		if err != nil {
			_ = fl.Close()
			return nil, fmt.Errorf("ingest batches %d..: %w", i, err)
		}
		for _, b := range part {
			e.userNNZ += int64(b.Coords.Len())
		}
	}
	if rec != nil {
		e.written += fl.fsCounts().BytesWritten
	}
	if err := fl.Close(); err != nil {
		return nil, err
	}
	return e.reopen(dir, rec, withObs, nclients)
}

// reopen boots a fleet over the stores dir already holds.
func (e *env) reopen(dir string, rec *recorder, withObs bool, nclients int) (*fleet, error) {
	stored, err := storedBytes(dir)
	if err != nil {
		return nil, err
	}
	cache, compactAt := defaultCache, 0
	switch {
	case e.workload == "region_cold":
		cache = stored / e.sc.CacheDiv
	case e.mutable():
		compactAt = e.sc.CompactAt
	}
	e.sizes["stored_bytes"] = float64(stored)
	e.sizes["cache_budget_bytes_per_shard"] = float64(cache)
	fl, err := bootFleet(fleetOpts{dir: dir, sc: e.sc, cache: cache, compactAt: compactAt, clients: nclients, rec: rec, obs: withObs})
	if err != nil {
		return nil, err
	}
	if e.mutable() {
		e.writer.cl = fl.clients[0]
	}
	return fl, nil
}

// userBytes is the size of the live tensor as the user holds it: 8
// bytes a coordinate and 8 a value for every live cell.
func (e *env) userBytes() float64 {
	return float64(e.oracle.live.Load()) * float64(8*len(e.sc.Shape)+8)
}

// userPoints is how many points the benchmark has had acknowledged.
func (e *env) userPoints() int64 {
	if e.mutable() {
		return e.ingest.points.Load()
	}
	return e.userNNZ
}

// stream returns client i's operation stream against fl.
func (e *env) stream(fl *fleet, i int, st *opStats) opStream {
	cl := fl.clients[i%len(fl.clients)]
	seed := e.seed*1000003 + uint64(i)
	switch e.workload {
	case "point_wire":
		s := e.probes(fl, i, seed)
		s.stats = st
		return s
	case "region_cold":
		s := newRegionStream(cl, e.sc, e.oracle, e.sc.RegionEdge, seed)
		s.stats = st
		return s
	case "kernel_scan":
		s := newKernelStream(cl, e.sc, e.oracle, seed)
		s.stats = st
		return s
	default:
		e.writer.cl = cl
		return e.writer
	}
}

// probes returns a probe stream on client i: the point_wire stream on
// the read workloads, ingest_mixed's reader on its store.
func (e *env) probes(fl *fleet, i int, seed uint64) *probeStream {
	cl := fl.clients[i%len(fl.clients)]
	if e.mutable() {
		s := newProbeStream(cl, e.sc, e.oracle, nil, seed)
		s.mut = e.ingest
		return s
	}
	return newProbeStream(cl, e.sc, e.oracle, e.data.tileAddr, seed)
}

// nextSeed gives each open-loop stream its own seed, derived from the
// workload seed alone.
func (e *env) nextSeed() uint64 { return e.seed*7919 + e.streams.Add(1)<<20 }

// pretouch reads every tile once, which pulls every fragment into the
// reader caches (the warm workloads must not pay first-touch I/O while
// measured) and checks the whole store against the oracle.
func (e *env) pretouch(fl *fleet) error {
	_, ntiles := e.sc.tiles()
	s := newRegionStream(fl.clients[0], e.sc, e.oracle, 0, e.seed)
	copy(s.region.Size, e.sc.Tile)
	for t := 0; t < ntiles; t++ {
		copy(s.region.Start, e.sc.tileOrigin(t))
		if !s.check(s.do(context.Background())) {
			return fmt.Errorf("tile %d does not match the oracle after set-up", t)
		}
	}
	return nil
}

// loadResult is what one stretch of load produced.
type loadResult struct {
	samples []sample // closed-loop clients, merged
	bounds  []int64
	res     []resources
	reader  []sample  // ingest_mixed client B
	disk    []float64 // bytes under the shard directories per byte of live user data, at each segment's end
	streams []opStream
}

// drive runs the workload's load for warm + measured time: the closed
// loops on nclients connections (ingest_mixed: the writer on one, the
// paced reader on the other), cut into segments by a coordinator that
// snapshots the process's resources at each boundary.
func (e *env) drive(fl *fleet, dir string, nclients int, warm, measured time.Duration, rec *recorder, st *opStats) loadResult {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  loadResult
	)
	base := time.Now()
	closed := nclients
	if e.mutable() {
		closed = 1
		if nclients > 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := openLoop(func() opStream { return e.probes(fl, 1, e.nextSeed()) }, e.sc.ReaderRate, warm+measured+time.Hour, &stop, base)
				mu.Lock()
				out.reader = r.samples
				mu.Unlock()
			}()
		}
	}
	for i := 0; i < closed; i++ {
		s := e.stream(fl, i, st)
		out.streams = append(out.streams, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := closedLoop(s, &stop, base, rec)
			mu.Lock()
			out.samples = append(out.samples, got...)
			mu.Unlock()
		}()
	}
	seg := measured / segmentCount
	for k := 0; k <= segmentCount; k++ {
		time.Sleep(time.Until(base.Add(warm + time.Duration(k)*seg)))
		out.bounds = append(out.bounds, int64(time.Since(base)))
		out.res = append(out.res, takeResources())
		if k > 0 {
			// Sampled while the load runs: on ingest_mixed the store's size
			// is a sum of per-tile saw-teeth, and where the run happens to
			// end on them must not decide the metric.
			if disk, err := storedBytes(dir); err == nil {
				out.disk = append(out.disk, float64(disk)/e.userBytes())
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	return out
}

// measuredOnly keeps the samples that ended inside the segments.
func (r *loadResult) measuredOnly(samples []sample) []sample {
	lo, hi := r.bounds[0], r.bounds[len(r.bounds)-1]
	var out []sample
	for _, s := range samples {
		if s.end > lo && s.end <= hi {
			out = append(out, s)
		}
	}
	return out
}

// finish checks ingest_mixed's end state: after one more delete the
// reserved band must read empty, and windows across the store must
// match the oracle. It returns operations attempted and failed.
func (e *env) finish(fl *fleet) (attempted, failed int) {
	if !e.mutable() {
		return 0, 0
	}
	ctx := context.Background()
	count := func(ok bool) {
		attempted++
		if !ok {
			failed++
		}
	}
	band := e.sc.band()
	_, err := fl.clients[0].DeleteRegion(ctx, band)
	e.oracle.deleteRegion(band)
	count(err == nil)
	res, _, err := fl.clients[0].Query(ctx, store.QueryRequest{Region: &band, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto})
	count(err == nil && res.Coords.Len() == 0)
	s := newRegionStream(fl.clients[0], e.sc, e.oracle, e.sc.RegionEdge, e.seed)
	for i := 0; i < 8; i++ {
		s.next()
		count(s.check(s.do(ctx)))
	}
	return attempted, failed
}

// runResult is one run's outcome: what the driver's last line carries,
// plus the spreads, sizes and layer table for the result files.
type runResult struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	Sizes     map[string]float64 `json:"sizes,omitempty"`
	Layers    []layerShare       `json:"layers,omitempty"`
}

// layerShare is one row of the traced run's budget table.
type layerShare struct {
	Layer   string  `json:"layer"`
	SelfUs  float64 `json:"self_us_per_op"`
	SharePc float64 `json:"share_pct"`
}

// runE2E is the untraced run: every end-to-end metric of one workload.
func runE2E(cfg runConfig) (*runResult, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.root)

	var fl *fleet
	var setups []float64
	dir := ""
	for i := 0; i < cfg.repeats; i++ {
		if fl != nil {
			if err := fl.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		if e.mutable() {
			if err := e.resetIngest(); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.root, fmt.Sprintf("setup%d", i))
		start := time.Now()
		if fl, err = e.setUp(dir, nil, false, clients); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	closeFleet := func() error {
		if fl == nil {
			return nil
		}
		f := fl
		fl = nil
		return f.Close()
	}
	defer closeFleet()

	if e.workload == "point_wire" || e.workload == "kernel_scan" {
		if err := e.pretouch(fl); err != nil {
			return nil, err
		}
	}
	measured := time.Duration(cfg.seconds * float64(time.Second))
	load := e.drive(fl, dir, clients, time.Duration(warmShare*float64(measured)), measured, nil, nil)

	attempted := len(load.samples) + len(load.reader)
	failed := failures(load.samples, 0) + failures(load.reader, readerLimit)
	fa, ff := e.finish(fl)
	attempted, failed = attempted+fa, failed+ff

	// Closing the stores waits for background compaction and deferred
	// removal, so what is on disk afterwards is the settled state.
	if err := closeFleet(); err != nil {
		return nil, err
	}
	disk, err := storedBytes(dir)
	if err != nil {
		return nil, err
	}
	e.sizes["disk_bytes_settled"] = float64(disk)
	e.sizes["live_nnz"] = float64(e.oracle.live.Load())

	segs := segments(load.samples, load.bounds, load.res)
	col := func(f func(segment) float64) []float64 {
		v := make([]float64, len(segs))
		for i, s := range segs {
			v[i] = f(s)
		}
		return v
	}
	m := map[string]summary{
		"setup_s":                  summarize("s", setups),
		"ops_per_s":                summarize("1/s", col(func(s segment) float64 { return s.opsPerS })),
		"p50_ms":                   summarize("ms", col(func(s segment) float64 { return s.p50 })),
		"cpu_us_per_op":            summarize("us", col(func(s segment) float64 { return s.cpuUs })),
		"allocs_per_op":            summarize("count", col(func(s segment) float64 { return s.allocs })),
		"alloc_kb_per_op":          summarize("KB", col(func(s segment) float64 { return s.kb })),
		"rss_peak_mb":              summarize("MB", []float64{rssPeakMB()}),
		"disk_bytes_per_user_byte": summarize("ratio", load.disk),
		// Diagnostics of the untraced run, kept in the result file.
		"load.p99_ms":       summarize("ms", col(func(s segment) float64 { return s.p99 })),
		"load.samples":      summarize("count", []float64{float64(len(load.measuredOnly(load.samples)))}),
		"load.late_ms_p99":  summarize("ms", col(func(s segment) float64 { return s.lateP99 })),
		"load.gc_pause_ms":  summarize("ms", col(func(s segment) float64 { return s.gcPauseMs })),
		"load.failed_share": summarize("ratio", []float64{float64(failed) / float64(max(attempted, 1))}),
	}
	if e.mutable() {
		lat := latencies(load.measuredOnly(load.reader))
		m["load.reader_p99_ms"] = summarize("ms", []float64{percentile(lat, 99)})
		m["load.reader_max_ms"] = summarize("ms", []float64{percentile(lat, 100)})
		over := sort.SearchFloat64s(lat, float64(readerTarget)/1e6)
		m["load.reader_over_50ms_share"] = summarize("ratio", []float64{float64(len(lat)-over) / float64(max(len(lat), 1))})
	}
	return &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m, Sizes: e.sizes,
	}, nil
}

// samplePoints returns points of the workload's own data for the
// codec's per-point fit.
func (e *env) samplePoints() *tensor.Coords {
	out := tensor.NewCoords(len(e.sc.Shape), 65000)
	if e.mutable() {
		for _, set := range e.ingest.pool {
			out.AppendFlat(set.Flat())
		}
		return out
	}
	for _, b := range e.data.batches {
		if out.Len() >= 65000 {
			break
		}
		out.AppendFlat(b.Coords.Flat())
	}
	return out
}
