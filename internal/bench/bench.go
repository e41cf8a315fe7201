// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§III): the write-time comparison
// of Fig. 3, the file sizes of Fig. 4, the read times of Fig. 5, the
// Table III write breakdown, the Table II dataset densities, the
// symbolic Table I, and the Table IV overall scores.
//
// A Runner generates the 3-pattern × 3-dimensionality dataset matrix,
// writes each dataset through the Algorithm 3 engine once per
// organization, reads back the paper's query region, and collects
// per-phase measurements. Rendering helpers in tables.go print the
// results in the papers' row/column layout next to the paper's own
// numbers where the paper states them.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all" // register all organizations
	"sparseart/internal/fsim"
	"sparseart/internal/gen"
	"sparseart/internal/obs"
	"sparseart/internal/stats"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// Case identifies one dataset cell of the evaluation matrix.
type Case struct {
	Pattern gen.Pattern
	Dims    int
}

// Cases returns the paper's nine dataset cells in table order (patterns
// across, dimensionalities down).
func Cases() []Case {
	var cs []Case
	for _, p := range gen.Patterns() {
		for _, d := range []int{2, 3, 4} {
			cs = append(cs, Case{Pattern: p, Dims: d})
		}
	}
	return cs
}

// Dataset couples a generated tensor with the paper's read region.
type Dataset struct {
	Case   Case
	Data   *gen.Dataset
	Region tensor.Region
}

// MakeDataset generates the dataset for one cell at a scale.
func MakeDataset(c Case, scale gen.Scale, seed uint64, workers int) (*Dataset, error) {
	cfg, err := gen.TableIIConfig(c.Pattern, c.Dims, scale, seed)
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	data, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	region, err := gen.ReadRegionFor(cfg.Shape)
	if err != nil {
		return nil, err
	}
	return &Dataset{Case: c, Data: data, Region: region}, nil
}

// Measurement is the result of writing and reading one dataset with one
// organization.
type Measurement struct {
	Case  Case
	Kind  core.Kind
	Shape tensor.Shape
	NNZ   int
	Write store.WriteReport
	Read  store.ReadReport
	Bytes int64
	Found int
	// ProbeScale is 1 for an exact read; when Runner.ProbeLimit
	// subsampled the probe region, the probe-proportional read phases
	// were extrapolated by this factor.
	ProbeScale float64
	// Observed is the write breakdown reconstructed from the obs span
	// histograms of a per-cell registry — timed independently of the
	// hand-rolled WriteReport, so agreement between the two validates
	// the instrumentation (the Table III self-test).
	Observed ObservedPhases
}

// ObservedPhases is a per-phase write breakdown sourced from the obs
// registry rather than the store's own WriteReport.
type ObservedPhases struct {
	Build, Reorg, Write, Others time.Duration
}

// Sum returns the observed write total.
func (o ObservedPhases) Sum() time.Duration { return o.Build + o.Reorg + o.Write + o.Others }

// observedPhases extracts the write-phase span durations from a
// registry snapshot. The unlabeled span histograms are the independent
// timing; the kind-labeled histograms mirror the WriteReport values and
// are deliberately not read here.
func observedPhases(s *obs.Snapshot) ObservedPhases {
	at := func(name string) time.Duration { return s.Histograms[name].Sum() }
	return ObservedPhases{
		Build:  at("store.write.build"),
		Reorg:  at("store.write.reorg"),
		Write:  at("store.write.write"),
		Others: at("store.write.others"),
	}
}

// WriteTotal is the Fig. 3 quantity.
func (m Measurement) WriteTotal() time.Duration { return m.Write.Sum() }

// ReadTotal is the Fig. 5 quantity.
func (m Measurement) ReadTotal() time.Duration { return m.Read.Sum() }

// Runner drives the full evaluation matrix.
type Runner struct {
	// Scale selects problem sizes; the default is gen.Small.
	Scale gen.Scale
	// Seed feeds the generators.
	Seed uint64
	// Kinds are the organizations to measure; nil means the paper's
	// five.
	Kinds []core.Kind
	// Cases are the dataset cells; nil means all nine.
	Cases []Case
	// NewFS returns a fresh file system per (case, kind) cell; nil
	// means a Perlmutter-calibrated fsim.SimFS.
	NewFS func() (fsim.FS, error)
	// GenWorkers is the generation parallelism (the measured write
	// path itself follows the paper and stays serial).
	GenWorkers int
	// ProbeLimit caps the probe points per read; larger regions are
	// stride-subsampled and the probe-proportional phases extrapolated
	// linearly (every probe is independent, so read cost is linear in
	// n_read for all five organizations — Table I). 0 means exact.
	// This makes the quadratic COO/LINEAR reads tractable at -scale
	// paper.
	ProbeLimit int
	// Trials repeats each (case, kind) measurement and reports the
	// per-phase medians, suppressing timer noise; values < 2 measure
	// once.
	Trials int
	// Log receives progress lines when non-nil.
	Log io.Writer
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

func (r *Runner) kinds() []core.Kind {
	if r.Kinds != nil {
		return r.Kinds
	}
	return core.PaperKinds()
}

func (r *Runner) cases() []Case {
	if r.Cases != nil {
		return r.Cases
	}
	return Cases()
}

func (r *Runner) newFS() (fsim.FS, error) {
	if r.NewFS != nil {
		return r.NewFS()
	}
	return fsim.NewPerlmutterSim(), nil
}

// RunCase measures every organization on one pre-generated dataset.
func (r *Runner) RunCase(ds *Dataset) ([]Measurement, error) {
	trials := r.Trials
	if trials < 1 {
		trials = 1
	}
	var out []Measurement
	for _, kind := range r.kinds() {
		samples := make([]Measurement, 0, trials)
		for trial := 0; trial < trials; trial++ {
			m, err := r.runCell(ds, kind)
			if err != nil {
				return nil, fmt.Errorf("bench: %v %dD %v: %w", ds.Case.Pattern, ds.Case.Dims, kind, err)
			}
			samples = append(samples, m)
		}
		out = append(out, medianMeasurement(samples))
	}
	return out, nil
}

// medianMeasurement reduces repeated trials to one measurement with the
// per-phase median of every duration; non-duration fields (bytes,
// counts) are identical across trials and taken from the first.
func medianMeasurement(samples []Measurement) Measurement {
	if len(samples) == 1 {
		return samples[0]
	}
	out := samples[0]
	pick := func(get func(Measurement) time.Duration) time.Duration {
		ds := make([]time.Duration, len(samples))
		for i, s := range samples {
			ds[i] = get(s)
		}
		return stats.MedianDuration(ds)
	}
	out.Write.Build = pick(func(m Measurement) time.Duration { return m.Write.Build })
	out.Write.Reorg = pick(func(m Measurement) time.Duration { return m.Write.Reorg })
	out.Write.Write = pick(func(m Measurement) time.Duration { return m.Write.Write })
	out.Write.Others = pick(func(m Measurement) time.Duration { return m.Write.Others })
	out.Read.IO = pick(func(m Measurement) time.Duration { return m.Read.IO })
	out.Read.Extract = pick(func(m Measurement) time.Duration { return m.Read.Extract })
	out.Read.Probe = pick(func(m Measurement) time.Duration { return m.Read.Probe })
	out.Read.Merge = pick(func(m Measurement) time.Duration { return m.Read.Merge })
	out.Observed.Build = pick(func(m Measurement) time.Duration { return m.Observed.Build })
	out.Observed.Reorg = pick(func(m Measurement) time.Duration { return m.Observed.Reorg })
	out.Observed.Write = pick(func(m Measurement) time.Duration { return m.Observed.Write })
	out.Observed.Others = pick(func(m Measurement) time.Duration { return m.Observed.Others })
	return out
}

func (r *Runner) runCell(ds *Dataset, kind core.Kind) (Measurement, error) {
	fs, err := r.newFS()
	if err != nil {
		return Measurement{}, err
	}
	shape := ds.Data.Config.Shape
	// Each cell gets its own registry so the span histograms isolate
	// exactly one store's phases; the snapshot is folded into the
	// process-wide registry afterwards (when one is enabled) so
	// `sparsebench -metrics` still sees the totals. The cell's write and
	// read run under one sampled trace, labeled with the cell, so the
	// snapshot's trace spans are its timeline.
	reg := obs.New()
	reg.SetProc(fmt.Sprintf("%v %dD %v", ds.Case.Pattern, ds.Case.Dims, kind))
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace(true))
	st, err := store.Create(fs, fmt.Sprintf("bench/%v/%dd/%v", ds.Case.Pattern, ds.Case.Dims, kind), kind, shape, store.WithObs(reg))
	if err != nil {
		return Measurement{}, err
	}
	// A one-batch ingest writes exactly the bytes of a Write.
	var wrep *store.WriteReport
	batch := []store.Batch{{Coords: ds.Data.Coords, Values: ds.Data.Values}}
	if err := st.WriteBatchContext(ctx, batch, 1, func(_ int, rep *store.WriteReport, _ error) error {
		wrep = rep
		return nil
	}); err != nil {
		return Measurement{}, err
	}
	probe := ds.Region.Coords()
	scale := 1.0
	if r.ProbeLimit > 0 && probe.Len() > r.ProbeLimit {
		stride := (probe.Len() + r.ProbeLimit - 1) / r.ProbeLimit
		sampled := tensor.NewCoords(probe.Dims(), probe.Len()/stride+1)
		for i := 0; i < probe.Len(); i += stride {
			sampled.Append(probe.At(i)...)
		}
		scale = float64(probe.Len()) / float64(sampled.Len())
		probe = sampled
	}
	res, rrep, err := st.Query(ctx, store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest})
	if err != nil {
		return Measurement{}, err
	}
	if scale != 1 {
		rrep.Probe = time.Duration(float64(rrep.Probe) * scale)
		rrep.Merge = time.Duration(float64(rrep.Merge) * scale)
	}
	snap := reg.Snapshot()
	obs.Global().Absorb(snap)
	m := Measurement{
		Case:       ds.Case,
		Kind:       kind,
		Shape:      shape,
		NNZ:        ds.Data.NNZ(),
		Write:      *wrep,
		Read:       *rrep,
		Bytes:      st.TotalBytes(),
		Found:      res.Coords.Len(),
		ProbeScale: scale,
		Observed:   observedPhases(snap),
	}
	r.logf("  %-10v write %8.4fs  read %8.4fs  %9d bytes  found %d",
		kind, m.WriteTotal().Seconds(), m.ReadTotal().Seconds(), m.Bytes, m.Found)
	return m, nil
}

// Run measures the full matrix, generating each dataset once and
// reusing it across organizations.
func (r *Runner) Run() ([]Measurement, []*Dataset, error) {
	var ms []Measurement
	var dss []*Dataset
	for _, c := range r.cases() {
		r.logf("dataset %v %dD (scale %v)", c.Pattern, c.Dims, r.Scale)
		ds, err := MakeDataset(c, r.Scale, r.Seed, r.GenWorkers)
		if err != nil {
			return nil, nil, err
		}
		r.logf("  nnz %d (density %.4f%%)", ds.Data.NNZ(), 100*ds.Data.Density())
		dss = append(dss, ds)
		cellMs, err := r.RunCase(ds)
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, cellMs...)
	}
	return ms, dss, nil
}
