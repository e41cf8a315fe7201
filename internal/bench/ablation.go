package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sparseart/internal/complexity"
	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/core/csf"
	"sparseart/internal/fsim"
	"sparseart/internal/gen"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// This file implements the ablation studies DESIGN.md §4 lists. Each
// renders one comparison table, RenderAblations runs them all, and
// `sparsebench -experiment ablations` prints them: this harness is the
// one place they are measured.

// buildFor packages a dataset in one organization and returns the
// payload, a reader, and the build duration.
func buildFor(kind core.Kind, ds *Dataset) (core.Reader, []byte, time.Duration, error) {
	format, err := core.Get(kind)
	if err != nil {
		return nil, nil, 0, err
	}
	shape := ds.Data.Config.Shape
	t0 := time.Now()
	built, err := format.Build(ds.Data.Coords, shape)
	if err != nil {
		return nil, nil, 0, err
	}
	buildTime := time.Since(t0)
	r, err := format.Open(built.Payload, shape)
	if err != nil {
		return nil, nil, 0, err
	}
	return r, built.Payload, buildTime, nil
}

// probeAll measures the per-probe lookup latency over a probe list.
func probeAll(r core.Reader, probe *tensor.Coords) (time.Duration, int) {
	found := 0
	t0 := time.Now()
	for i, n := 0, probe.Len(); i < n; i++ {
		if _, ok := r.Lookup(probe.At(i)); ok {
			found++
		}
	}
	return time.Since(t0), found
}

// subsample caps the probe list (see Runner.ProbeLimit for why this is
// sound).
func subsample(probe *tensor.Coords, limit int) *tensor.Coords {
	if probe.Len() <= limit {
		return probe
	}
	stride := (probe.Len() + limit - 1) / limit
	out := tensor.NewCoords(probe.Dims(), probe.Len()/stride+1)
	for i := 0; i < probe.Len(); i += stride {
		out.AppendFlat(probe.At(i))
	}
	return out
}

// splitBatches deals a dataset's points into parts batches, point i to
// batch i mod parts, so that each batch spans the whole tensor as a run
// of smaller writes over it does, and every fragment overlaps a read
// window.
func splitBatches(ds *Dataset, parts int) []store.Batch {
	coords, vals := ds.Data.Coords, ds.Data.Values
	n := coords.Len()
	batches := make([]store.Batch, parts)
	for w := range batches {
		b := &batches[w]
		b.Coords = tensor.NewCoords(coords.Dims(), n/parts+1)
		for i := w; i < n; i += parts {
			b.Coords.AppendFlat(coords.At(i))
			b.Values = append(b.Values, vals[i])
		}
	}
	return batches
}

// fastest runs f trials times and keeps its shortest duration: on
// sub-millisecond work the minimum is the steady cost and the rest is
// scheduling and cache noise.
func fastest(trials int, f func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < trials; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// AblationSortedCOO quantifies §II-A's sorted-COO trade-off on the 3D
// GSP dataset.
func AblationSortedCOO(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.GSP, Dims: 3}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	probe := subsample(ds.Region.Coords(), 2000)
	t := &table{header: []string{"Variant", "Build", "ns/probe", "Found"}}
	for _, kind := range []core.Kind{core.COO, core.COOSorted} {
		r, _, buildTime, err := buildFor(kind, ds)
		if err != nil {
			return "", err
		}
		probeTime, found := probeAll(r, probe)
		t.add(kind.String(),
			fmt.Sprintf("%.3fms", buildTime.Seconds()*1e3),
			fmt.Sprintf("%.0f", float64(probeTime.Nanoseconds())/float64(probe.Len())),
			fmt.Sprintf("%d", found))
	}
	return "Ablation: sorted vs unsorted COO (3D GSP, the paper's untested §II-A trade-off)\n" + t.String(), nil
}

// AblationBCOO compares the HiCOO-style extension against the paper's
// baselines on every pattern.
func AblationBCOO(scale gen.Scale, seed uint64) (string, error) {
	t := &table{header: []string{"Dataset", "Format", "Bytes/point", "ns/probe"}}
	for _, pattern := range gen.Patterns() {
		ds, err := MakeDataset(Case{Pattern: pattern, Dims: 3}, scale, seed, 0)
		if err != nil {
			return "", err
		}
		probe := subsample(ds.Region.Coords(), 1000)
		for _, kind := range []core.Kind{core.COO, core.Linear, core.BCOO} {
			r, payload, _, err := buildFor(kind, ds)
			if err != nil {
				return "", err
			}
			probeTime, _ := probeAll(r, probe)
			t.add(fmt.Sprintf("3D %v", pattern), kind.String(),
				fmt.Sprintf("%.2f", float64(len(payload))/float64(ds.Data.NNZ())),
				fmt.Sprintf("%.0f", float64(probeTime.Nanoseconds())/float64(probe.Len())))
		}
	}
	return "Ablation: HiCOO-style BCOO vs the paper's scan baselines\n" + t.String(), nil
}

// AblationCSFDescent compares Algorithm 2's literal linear sibling scan
// against binary-search descent across dimensionalities.
func AblationCSFDescent(scale gen.Scale, seed uint64) (string, error) {
	t := &table{header: []string{"Dataset", "Linear ns/probe", "Binary ns/probe"}}
	for _, dims := range []int{2, 3, 4} {
		ds, err := MakeDataset(Case{Pattern: gen.GSP, Dims: dims}, scale, seed, 0)
		if err != nil {
			return "", err
		}
		probe := subsample(ds.Region.Coords(), 2000)
		shape := ds.Data.Config.Shape
		var cells []string
		for _, format := range []csf.Format{csf.New(), {BinarySearch: true}} {
			built, err := format.Build(ds.Data.Coords, shape)
			if err != nil {
				return "", err
			}
			r, err := format.Open(built.Payload, shape)
			if err != nil {
				return "", err
			}
			probeTime, _ := probeAll(r, probe)
			cells = append(cells, fmt.Sprintf("%.0f", float64(probeTime.Nanoseconds())/float64(probe.Len())))
		}
		t.add(fmt.Sprintf("%dD GSP", dims), cells[0], cells[1])
	}
	return "Ablation: CSF descent strategy (the linear scan causes the paper's 2D exception)\n" + t.String(), nil
}

// AblationScanVsProbe measures the planner's choice (StrategyAuto)
// against both of its sides. The store is one 64³ tile holding one
// fragment of ≈ 16 000 uniform GSP points, read with a warm cache
// through centred cubic windows of edge 1 to 32. Per organization and
// edge the table prints the µs of the paper's probe of every cell (a
// probe list), of the forced scan, and which one the planner picks. A
// window of over 1 000 cells probes an even subsample of them and
// scales the time up, as Runner.ProbeLimit does: Table I prices every
// probe linearly in n_read. The scale argument is unused: the study's
// setup is the one TestAutoStrategySelection pins.
func AblationScanVsProbe(_ gen.Scale, seed uint64) (string, error) {
	shape := tensor.Shape{64, 64, 64}
	data, err := gen.Generate(gen.Config{Pattern: gen.GSP, Shape: shape, Seed: seed, Prob: 16000.0 / (64 * 64 * 64)})
	if err != nil {
		return "", err
	}
	values := make([]float64, data.NNZ())
	for i := range values {
		values[i] = gen.ValueAt(data.Coords.At(i))
	}
	t := &table{header: []string{"Format", "Window", "Probe us", "Scan us", "Planner picks", "Faster"}}
	for _, kind := range []core.Kind{core.COO, core.Linear, core.GCSR, core.GCSC, core.CSF, core.COOSorted, core.BCOO} {
		st, err := store.Create(fsim.NewPerlmutterSim(), "ab", kind, shape)
		if err != nil {
			return "", err
		}
		if _, err := st.Write(data.Coords, values); err != nil {
			return "", err
		}
		// µs of the fastest of up to five reads, fewer once they have
		// taken 100 ms (COO and LINEAR probing a large window).
		read := func(req store.QueryRequest) (float64, error) {
			req.AsOf = store.AsOfLatest
			var best, spent time.Duration
			for i := 0; i < 5 && spent < 100*time.Millisecond; i++ {
				t0 := time.Now()
				if _, _, err := st.Query(context.Background(), req); err != nil {
					return 0, err
				}
				d := time.Since(t0)
				if spent += d; i == 0 || d < best {
					best = d
				}
			}
			return float64(best.Nanoseconds()) / 1e3, nil
		}
		for edge := uint64(1); edge <= 32; edge *= 2 {
			start := (64 - edge) / 2
			region, err := tensor.NewRegion(shape, []uint64{start, start, start}, []uint64{edge, edge, edge})
			if err != nil {
				return "", err
			}
			if _, err := read(store.QueryRequest{Region: &region}); err != nil { // warms the cache
				return "", err
			}
			cells := region.Coords()
			sample := subsample(cells, 1000)
			probe, err := read(store.QueryRequest{Probe: sample})
			if err != nil {
				return "", err
			}
			probe *= float64(cells.Len()) / float64(sample.Len())
			scan, err := read(store.QueryRequest{Region: &region, Strategy: store.StrategyScan})
			if err != nil {
				return "", err
			}
			_, arep, err := st.Query(context.Background(), store.QueryRequest{Region: &region, AsOf: store.AsOfLatest})
			if err != nil {
				return "", err
			}
			pick, faster := "probe", "probe"
			if arep.Scans > 0 {
				pick = "scan"
			}
			if scan < probe {
				faster = "scan"
			}
			t.add(kind.String(), fmt.Sprintf("%d^3", edge),
				fmt.Sprintf("%.1f", probe), fmt.Sprintf("%.1f", scan), pick, faster)
		}
	}
	return fmt.Sprintf("Ablation: probe vs scan region reads and the planner's pick (64³ tile, one fragment of %d GSP points, warm cache; probes past 1 000 cells extrapolated)\n", data.NNZ()) + t.String(), nil
}

// AblationProbeOrder tests the trade-off §II-C declines to take:
// GCSR++_READ "does not sort b_coor^2D ... because sorting incurs a
// time complexity of O(n_read log n_read)". We probe the paper's read
// window in three orders — row-major (naturally sorted), shuffled, and
// shuffled-then-sorted (paying the sort the paper avoids) — and report
// whether the locality win covers the sorting cost.
func AblationProbeOrder(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.TSP, Dims: 3}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	shape := ds.Data.Config.Shape
	probe := subsample(ds.Region.Coords(), 4000)
	r, _, _, err := buildFor(core.GCSR, ds)
	if err != nil {
		return "", err
	}

	// Deterministically shuffle a copy of the probe list.
	shuffled := probe.Clone()
	state := seed ^ 0xDEADBEEF
	n := shuffled.Len()
	d := shuffled.Dims()
	flat := shuffled.Flat()
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		for k := 0; k < d; k++ {
			flat[i*d+k], flat[j*d+k] = flat[j*d+k], flat[i*d+k]
		}
	}

	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return "", err
	}
	t := &table{header: []string{"Probe order", "Sort", "Probe", "Total"}}
	measure := func(name string, coords *tensor.Coords, sortFirst bool) {
		var sortDur time.Duration
		work := coords
		if sortFirst {
			t0 := time.Now()
			order := make([]int, work.Len())
			for i := range order {
				order[i] = i
			}
			keys := make([]uint64, work.Len())
			for i := range keys {
				keys[i] = lin.Linearize(work.At(i))
			}
			sortInts(order, keys)
			sorted := tensor.NewCoords(work.Dims(), work.Len())
			for _, i := range order {
				sorted.AppendFlat(work.At(i))
			}
			work = sorted
			sortDur = time.Since(t0)
		}
		probeDur, _ := probeAll(r, work)
		t.add(name,
			fmt.Sprintf("%.3fms", sortDur.Seconds()*1e3),
			fmt.Sprintf("%.3fms", probeDur.Seconds()*1e3),
			fmt.Sprintf("%.3fms", (sortDur+probeDur).Seconds()*1e3))
	}
	measure("row-major", probe, false)
	measure("shuffled", shuffled, false)
	measure("shuffled+sorted", shuffled, true)
	return "Ablation: GCSR++ probe ordering (the sort §II-C declines to pay)\n" + t.String(), nil
}

// sortInts sorts order by keys ascending (simple insertion-free sort via
// the standard library would need a closure; this keeps the hot loop
// allocation-free).
func sortInts(order []int, keys []uint64) {
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
}

// AblationCodecs measures the orthogonal compression layer per
// organization.
func AblationCodecs(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.MSP, Dims: 3}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	t := &table{header: []string{"Format", "Codec", "Bytes", "vs none"}}
	for _, kind := range []core.Kind{core.COOSorted, core.Linear, core.GCSR, core.CSF} {
		var baseline int64
		for _, codec := range compress.All() {
			fs := fsim.NewPerlmutterSim()
			st, err := store.Create(fs, "ab", kind, ds.Data.Config.Shape, store.WithCodec(codec.ID()))
			if err != nil {
				return "", err
			}
			rep, err := st.Write(ds.Data.Coords, ds.Data.Values)
			if err != nil {
				return "", err
			}
			if codec.ID() == compress.None {
				baseline = rep.Bytes
			}
			t.add(kind.String(), codec.Name(),
				fmt.Sprintf("%d", rep.Bytes),
				fmt.Sprintf("%.2fx", float64(rep.Bytes)/float64(baseline)))
		}
	}
	return "Ablation: fragment payload codecs (3D MSP; §II's orthogonal compression)\n" + t.String(), nil
}

// AblationReaderCache measures the fragment-reader cache: the modeled
// I/O plus decode cost of a cold region read, a warm repeat (readers
// resident, zero file-system traffic), and a repeat with the cache
// disabled, which pays the cold cost every time.
func AblationReaderCache(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.TSP, Dims: 3}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	shape := ds.Data.Config.Shape
	t := &table{header: []string{"Format", "Cold", "Warm", "Cache off (repeat)", "Warm speedup"}}
	for _, kind := range []core.Kind{core.COO, core.Linear, core.GCSR, core.CSF} {
		// run writes the dataset in four fragments and times two
		// consecutive region reads (first = cold, second = repeat).
		run := func(budget int64) (cold, repeat time.Duration, err error) {
			fs := fsim.NewPerlmutterSim()
			st, err := store.Create(fs, "ab", kind, shape, store.WithReaderCache(budget))
			if err != nil {
				return 0, 0, err
			}
			coords, vals := ds.Data.Coords, ds.Data.Values
			n := coords.Len()
			chunk := (n + 3) / 4
			for off := 0; off < n; off += chunk {
				end := off + chunk
				if end > n {
					end = n
				}
				part := tensor.NewCoords(coords.Dims(), end-off)
				for i := off; i < end; i++ {
					part.AppendFlat(coords.At(i))
				}
				if _, err := st.Write(part, vals[off:end]); err != nil {
					return 0, 0, err
				}
			}
			read := func() (time.Duration, error) {
				_, rep, err := st.Query(context.Background(), store.QueryRequest{Probe: ds.Region.Coords(), AsOf: store.AsOfLatest})
				if err != nil {
					return 0, err
				}
				return rep.IO + rep.Extract, nil
			}
			if cold, err = read(); err != nil {
				return 0, 0, err
			}
			repeat, err = read()
			return cold, repeat, err
		}
		cold, warm, err := run(256 << 20)
		if err != nil {
			return "", err
		}
		_, offRepeat, err := run(0)
		if err != nil {
			return "", err
		}
		speedup := "inf (zero I/O)"
		if warm > 0 {
			speedup = fmt.Sprintf("%.0fx", float64(offRepeat)/float64(warm))
		}
		t.add(kind.String(),
			fmt.Sprintf("%.2fms", cold.Seconds()*1e3),
			fmt.Sprintf("%.3fms", warm.Seconds()*1e3),
			fmt.Sprintf("%.2fms", offRepeat.Seconds()*1e3),
			speedup)
	}
	return "Ablation: fragment-reader cache (modeled I/O + decode per region read, 3D TSP, 4 fragments)\n" + t.String(), nil
}

// AblationManifestLog measures the append-only manifest log against the
// pre-log rewrite-per-write policy (pinned via checkpoint-every-1) on
// the Table III workload — the 4D MSP dataset — split into 64 fragment
// writes. The rewrite policy pays three metadata operations per write
// (log append, manifest rewrite, log removal) and rewrites the whole
// fragment list each time, so its cumulative metadata bytes grow
// quadratically with fragment count; the log policy pays one bounded
// append per write ("Others" flat in fragment count) and folds a
// checkpoint only at the adaptive cadence.
func AblationManifestLog(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.MSP, Dims: 4}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	shape := ds.Data.Config.Shape
	coords, vals := ds.Data.Coords, ds.Data.Values
	const parts = 64
	n := coords.Len()
	run := func(opt store.Option) (first, last, total time.Duration, metaBytes int64, err error) {
		fs := fsim.NewPerlmutterSim()
		st, err := store.Create(fs, "ml", core.GCSR, shape, opt)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		fs.ResetStats()
		var fragBytes int64
		others := make([]time.Duration, 0, parts)
		for w := 0; w < parts; w++ {
			lo, hi := w*n/parts, (w+1)*n/parts
			part := tensor.NewCoords(shape.Dims(), hi-lo)
			for i := lo; i < hi; i++ {
				part.AppendFlat(coords.At(i))
			}
			rep, err := st.Write(part, vals[lo:hi])
			if err != nil {
				return 0, 0, 0, 0, err
			}
			others = append(others, rep.Others)
			fragBytes += rep.Bytes
			total += rep.Others
		}
		avg := func(d []time.Duration) time.Duration {
			var sum time.Duration
			for _, x := range d {
				sum += x
			}
			return sum / time.Duration(len(d))
		}
		first, last = avg(others[:8]), avg(others[parts-8:])
		// Everything written beyond the fragment files is manifest
		// metadata: checkpoints, log appends, log repairs.
		metaBytes = fs.Stats().BytesWritten - fragBytes
		return first, last, total, metaBytes, nil
	}
	t := &table{header: []string{"Policy", "Others (writes 1-8)", "Others (writes 57-64)", "Others total", "Metadata bytes"}}
	for _, policy := range []struct {
		name string
		opt  store.Option
	}{
		{"rewrite-per-write (K=1)", store.WithManifestCheckpointEvery(1)},
		{"append-only log (adaptive)", store.WithManifestCheckpointEvery(0)},
	} {
		first, last, total, metaBytes, err := run(policy.opt)
		if err != nil {
			return "", err
		}
		t.add(policy.name,
			fmt.Sprintf("%.2fms/write", first.Seconds()*1e3),
			fmt.Sprintf("%.2fms/write", last.Seconds()*1e3),
			fmt.Sprintf("%.1fms", total.Seconds()*1e3),
			fmt.Sprintf("%d", metaBytes))
	}
	return "Ablation: manifest delta log vs per-write rewrite (Table III workload, 4D MSP, 64 writes)\n" + t.String(), nil
}

// AblationModelValidation compares Table I's predicted cost *ratios*
// against measured ones on the 3D GSP dataset, with COO as the
// denominator: if the model is sound, predicted and measured ratios
// should agree in order of magnitude even though the model counts
// abstract operations and the measurement counts nanoseconds.
func AblationModelValidation(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.GSP, Dims: 3}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	shape := ds.Data.Config.Shape
	probe := subsample(ds.Region.Coords(), 1000)
	params := complexity.Params{
		N:        float64(ds.Data.NNZ()),
		NRead:    float64(probe.Len()),
		Shape:    shape,
		CSFShare: 0.5,
	}

	cooEst, err := complexity.For(core.COO, params)
	if err != nil {
		return "", err
	}
	cooReader, cooPayload, _, err := buildFor(core.COO, ds)
	if err != nil {
		return "", err
	}
	cooProbe, _ := probeAll(cooReader, probe)

	// COO's O(1) build makes its build ratio degenerate; build is
	// compared against LINEAR instead.
	linEst, err := complexity.For(core.Linear, params)
	if err != nil {
		return "", err
	}
	_, _, linBuild, err := buildFor(core.Linear, ds)
	if err != nil {
		return "", err
	}

	t := &table{header: []string{"Format", "Metric", "Predicted ratio", "Measured ratio"}}
	for _, kind := range []core.Kind{core.Linear, core.GCSR, core.GCSC, core.CSF} {
		est, err := complexity.For(kind, params)
		if err != nil {
			return "", err
		}
		r, payload, buildDur, err := buildFor(kind, ds)
		if err != nil {
			return "", err
		}
		probeDur, _ := probeAll(r, probe)
		t.add(kind.String(), "read vs COO",
			fmt.Sprintf("%.4f", est.Read/cooEst.Read),
			fmt.Sprintf("%.4f", probeDur.Seconds()/cooProbe.Seconds()))
		t.add(kind.String(), "space vs COO",
			fmt.Sprintf("%.3f", est.SpaceWords/cooEst.SpaceWords),
			fmt.Sprintf("%.3f", float64(len(payload))/float64(len(cooPayload))))
		if kind != core.Linear {
			t.add(kind.String(), "build vs LINEAR",
				fmt.Sprintf("%.2f", est.Build/linEst.Build),
				fmt.Sprintf("%.2f", buildDur.Seconds()/linBuild.Seconds()))
		}
	}
	return "Ablation: Table I model validation (predicted vs measured ratios, 3D GSP)\n" + t.String(), nil
}

// AblationGCSCLayout reproduces §III-A's explanation of Table III's
// GCSC++ build time on its workload (4D MSP): built from the generator's
// row-major input, GCSC++ pays a full reshuffle into its column-major
// layout; built from input already in that order, it builds as GCSR++
// does from row-major input.
func AblationGCSCLayout(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.MSP, Dims: 4}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	shape := ds.Data.Config.Shape
	rowMajor := ds.Data.Coords
	gcsr, err := core.Get(core.GCSR)
	if err != nil {
		return "", err
	}
	gcsc, err := core.Get(core.GCSC)
	if err != nil {
		return "", err
	}
	// GCSC++'s own point order is the permutation its build returns.
	built, err := gcsc.Build(rowMajor, shape)
	if err != nil {
		return "", err
	}
	colMajor := tensor.ApplyPermCoords(rowMajor, built.Perm)
	t := &table{header: []string{"Format", "Input order", "Build", "vs GCSR++"}}
	var base time.Duration
	for _, r := range []struct {
		format core.Format
		order  string
		coords *tensor.Coords
	}{
		{gcsr, "row-major", rowMajor},
		{gcsc, "row-major", rowMajor},
		{gcsc, "column-major", colMajor},
	} {
		d, err := fastest(5, func() (time.Duration, error) {
			t0 := time.Now()
			_, err := r.format.Build(r.coords, shape)
			return time.Since(t0), err
		})
		if err != nil {
			return "", err
		}
		if base == 0 {
			base = d
		}
		t.add(r.format.Kind().String(), r.order,
			fmt.Sprintf("%.3fms", d.Seconds()*1e3),
			fmt.Sprintf("%.2fx", d.Seconds()/base.Seconds()))
	}
	return "Ablation: GCSC++ input layout (Table III workload, 4D MSP; §III-A's build-time gap)\n" + t.String(), nil
}

// AblationCompact measures fragment consolidation: a region read of a
// GCSR++ store written as 16 fragments, before and after Compact folds
// them into one.
func AblationCompact(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.MSP, Dims: 3}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	const parts = 16
	t := &table{header: []string{"Store", "Fragments read", "Cold read", "Found"}}
	for _, compacted := range []bool{false, true} {
		st, err := store.Create(fsim.NewPerlmutterSim(), "cp", core.GCSR, ds.Data.Config.Shape)
		if err != nil {
			return "", err
		}
		if _, err := st.WriteBatch(splitBatches(ds, parts), 0); err != nil {
			return "", err
		}
		name := fmt.Sprintf("fragmented-%d", parts)
		if compacted {
			name = "compacted"
			if _, err := st.Compact(); err != nil {
				return "", err
			}
		}
		_, rep, err := st.Query(context.Background(), store.QueryRequest{Probe: ds.Region.Coords(), AsOf: store.AsOfLatest})
		if err != nil {
			return "", err
		}
		t.add(name, fmt.Sprintf("%d", rep.Fragments),
			fmt.Sprintf("%.2fms", (rep.IO+rep.Extract+rep.Probe+rep.Merge).Seconds()*1e3),
			fmt.Sprintf("%d", rep.Found))
	}
	return "Ablation: fragment consolidation (3D MSP, GCSR++, modeled I/O + decode + probe + merge per region read)\n" + t.String(), nil
}

// AblationIngest compares a serial loop of Write against WriteBatch,
// which prepares fragments on a worker pool while one committer keeps
// the loop's fragment order and bytes, on the Table III workload (4D
// MSP, GCSR++) cut into 16 batches: into a flat store, and into a
// chunked store whose 2×2×2×2 tiles turn each batch into a fragment per
// tile it touches.
func AblationIngest(scale gen.Scale, seed uint64) (string, error) {
	ds, err := MakeDataset(Case{Pattern: gen.MSP, Dims: 4}, scale, seed, 0)
	if err != nil {
		return "", err
	}
	shape := ds.Data.Config.Shape
	tile := make(tensor.Shape, len(shape))
	for d := range shape {
		tile[d] = (shape[d] + 1) / 2
	}
	batches := splitBatches(ds, 16)
	stores := []struct {
		name string
		open func() (*store.Store, error)
	}{
		{"flat", func() (*store.Store, error) {
			return store.Create(fsim.NewPerlmutterSim(), "in", core.GCSR, shape)
		}},
		{"chunked", func() (*store.Store, error) {
			return store.NewChunked(fsim.NewPerlmutterSim(), "in", core.GCSR, shape, tile)
		}},
	}
	t := &table{header: []string{"Store", "Path", "Wall", "vs serial", "Fragments", "NNZ"}}
	for _, sc := range stores {
		var serial time.Duration
		for _, workers := range []int{0, 1, 4, 8} {
			// Each trial writes every batch into a fresh store; the
			// last one's fragments and reports are the row's.
			var w *store.Store
			var reps []*store.WriteReport
			wall, err := fastest(5, func() (time.Duration, error) {
				var err error
				if w, err = sc.open(); err != nil {
					return 0, err
				}
				t0 := time.Now()
				if workers > 0 {
					reps, err = w.WriteBatch(batches, workers)
					return time.Since(t0), err
				}
				reps = reps[:0]
				for _, b := range batches {
					rep, err := w.Write(b.Coords, b.Values)
					if err != nil {
						return 0, err
					}
					reps = append(reps, rep)
				}
				return time.Since(t0), nil
			})
			if err != nil {
				return "", err
			}
			path := fmt.Sprintf("WriteBatch-%dw", workers)
			if workers == 0 {
				path, serial = "serial-Write", wall
			}
			var nnz int
			for _, rep := range reps {
				nnz += rep.NNZ
			}
			t.add(sc.name, path,
				fmt.Sprintf("%.2fms", wall.Seconds()*1e3),
				fmt.Sprintf("%.2fx", serial.Seconds()/wall.Seconds()),
				fmt.Sprintf("%d", w.Fragments()),
				fmt.Sprintf("%d", nnz))
		}
	}
	return "Ablation: batched ingest (Table III workload, 4D MSP, GCSR++, 16 batches; chunked = 2x2x2x2 tiles)\n" + t.String(), nil
}

// RenderAblations runs every ablation study and concatenates the
// tables.
func RenderAblations(scale gen.Scale, seed uint64, log io.Writer) (string, error) {
	studies := []struct {
		name string
		run  func(gen.Scale, uint64) (string, error)
	}{
		{"sorted-coo", AblationSortedCOO},
		{"bcoo", AblationBCOO},
		{"csf-descent", AblationCSFDescent},
		{"scan-vs-probe", AblationScanVsProbe},
		{"probe-order", AblationProbeOrder},
		{"codecs", AblationCodecs},
		{"reader-cache", AblationReaderCache},
		{"manifest-log", AblationManifestLog},
		{"model-validation", AblationModelValidation},
		{"gcsc-layout", AblationGCSCLayout},
		{"compact", AblationCompact},
		{"ingest", AblationIngest},
	}
	var out strings.Builder
	for _, s := range studies {
		if log != nil {
			fmt.Fprintf(log, "ablation %s\n", s.name)
		}
		text, err := s.run(scale, seed)
		if err != nil {
			return "", fmt.Errorf("ablation %s: %w", s.name, err)
		}
		out.WriteString(text)
		out.WriteString("\n")
	}
	return out.String(), nil
}
