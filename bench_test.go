// Benchmarks regenerating every table and figure of the paper's
// evaluation (§III) as testing.B targets, plus the ablations listed in
// DESIGN.md §4. The experiment matrix runs at the reduced "small" scale
// so `go test -bench=.` finishes in minutes; cmd/sparsebench reproduces
// the same numbers at any scale with full control.
//
//	BenchmarkTable2Generate  dataset generation (Table II datasets)
//	BenchmarkFig3Write       write path per organization (Figure 3, Table III)
//	BenchmarkFig4Size        fragment bytes per organization (Figure 4)
//	BenchmarkFig5Read        region read per organization (Figure 5)
//	BenchmarkAblation*       design-choice ablations
//
// Write benchmarks report bytes/frag; read benchmarks report ns/probe.
package sparseart_test

import (
	"fmt"
	"sync"
	"testing"

	"sparseart/internal/bench"
	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/core/csf"
	"sparseart/internal/core/gcs"
	"sparseart/internal/fsim"
	"sparseart/internal/gen"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

var (
	dsCache   = map[bench.Case]*bench.Dataset{}
	dsCacheMu sync.Mutex
)

// dataset lazily generates and caches one Table II dataset at small
// scale.
func dataset(b *testing.B, c bench.Case) *bench.Dataset {
	b.Helper()
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[c]; ok {
		return ds
	}
	ds, err := bench.MakeDataset(c, gen.Small, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	dsCache[c] = ds
	return ds
}

func eachCase(b *testing.B, f func(b *testing.B, c bench.Case)) {
	for _, c := range bench.Cases() {
		c := c
		b.Run(fmt.Sprintf("%v_%dD", c.Pattern, c.Dims), func(b *testing.B) { f(b, c) })
	}
}

func eachKind(b *testing.B, f func(b *testing.B, k core.Kind)) {
	for _, k := range core.PaperKinds() {
		k := k
		b.Run(k.String(), func(b *testing.B) { f(b, k) })
	}
}

// BenchmarkTable2Generate measures synthesis of the Table II datasets.
func BenchmarkTable2Generate(b *testing.B) {
	eachCase(b, func(b *testing.B, c bench.Case) {
		cfg, err := gen.TableIIConfig(c.Pattern, c.Dims, gen.Small, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds, err := gen.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ds.NNZ()), "points")
		}
	})
}

// BenchmarkFig3Write measures the full WRITE of Algorithm 3 (build +
// reorganize + fragment encode + store) per organization and dataset —
// the matrix of the paper's Figure 3. The byte metric doubles as
// Figure 4's file size.
func BenchmarkFig3Write(b *testing.B) {
	eachCase(b, func(b *testing.B, c bench.Case) {
		ds := dataset(b, c)
		eachKind(b, func(b *testing.B, kind core.Kind) {
			fs := fsim.NewPerlmutterSim()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := store.Create(fs, fmt.Sprintf("w%d", i), kind, ds.Data.Config.Shape)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := st.Write(ds.Data.Coords, ds.Data.Values)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Bytes), "bytes/frag")
				b.ReportMetric(rep.Build.Seconds()*1e3, "build-ms")
				b.ReportMetric(rep.Write.Seconds()*1e3, "lustre-ms")
			}
		})
	})
}

// BenchmarkFig4Size measures index packaging alone (no I/O): bytes per
// point per organization, the essence of Figure 4.
func BenchmarkFig4Size(b *testing.B) {
	eachCase(b, func(b *testing.B, c bench.Case) {
		ds := dataset(b, c)
		shape := ds.Data.Config.Shape
		eachKind(b, func(b *testing.B, kind core.Kind) {
			format, err := core.Get(kind)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				built, err := format.Build(ds.Data.Coords, shape)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(built.Payload))/float64(ds.Data.NNZ()), "bytes/point")
			}
		})
	})
}

// readProbe returns the paper's read region as a probe list, subsampled
// so the O(n·n_read) scans of COO and LINEAR stay tractable inside a
// testing.B loop; ns/probe is the comparable quantity.
func readProbe(ds *bench.Dataset, limit int) *tensor.Coords {
	probe := ds.Region.Coords()
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

// BenchmarkFig5Read measures the READ of Algorithm 3 per organization
// and dataset — the paper's Figure 5.
func BenchmarkFig5Read(b *testing.B) {
	eachCase(b, func(b *testing.B, c bench.Case) {
		ds := dataset(b, c)
		probe := readProbe(ds, 2000)
		eachKind(b, func(b *testing.B, kind core.Kind) {
			fs := fsim.NewPerlmutterSim()
			st, err := store.Create(fs, "r", kind, ds.Data.Config.Shape)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Write(ds.Data.Coords, ds.Data.Values); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := queryProbe(st, probe)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Probe.Seconds()*1e9/float64(probe.Len()), "ns/probe")
			}
		})
	})
}

// BenchmarkAblationSortedCOO quantifies the §II-A trade-off the paper
// discusses but does not measure: sorting COO costs n log n at build
// and repays with binary-search probes.
func BenchmarkAblationSortedCOO(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.GSP, Dims: 3})
	shape := ds.Data.Config.Shape
	probe := readProbe(ds, 2000)
	for _, kind := range []core.Kind{core.COO, core.COOSorted} {
		kind := kind
		b.Run("build/"+kind.String(), func(b *testing.B) {
			format, err := core.Get(kind)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := format.Build(ds.Data.Coords, shape); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("read/"+kind.String(), func(b *testing.B) {
			format, err := core.Get(kind)
			if err != nil {
				b.Fatal(err)
			}
			built, err := format.Build(ds.Data.Coords, shape)
			if err != nil {
				b.Fatal(err)
			}
			r, err := format.Open(built.Payload, shape)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < probe.Len(); j++ {
					r.Lookup(probe.At(j))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probe.Len()), "ns/probe")
		})
	}
}

// BenchmarkAblationCSFDescent compares the paper-faithful linear
// sibling scan of CSF_READ against binary-search descent, across
// dimensionalities — the linear scan is what makes CSF lose at 2D.
func BenchmarkAblationCSFDescent(b *testing.B) {
	for _, dims := range []int{2, 3, 4} {
		ds := dataset(b, bench.Case{Pattern: gen.GSP, Dims: dims})
		shape := ds.Data.Config.Shape
		probe := readProbe(ds, 2000)
		for _, variant := range []struct {
			name   string
			format csf.Format
		}{
			{"linear", csf.New()},
			{"binary", csf.Format{BinarySearch: true}},
		} {
			variant := variant
			b.Run(fmt.Sprintf("%dD/%s", dims, variant.name), func(b *testing.B) {
				built, err := variant.format.Build(ds.Data.Coords, shape)
				if err != nil {
					b.Fatal(err)
				}
				r, err := variant.format.Open(built.Payload, shape)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < probe.Len(); j++ {
						r.Lookup(probe.At(j))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probe.Len()), "ns/probe")
			})
		}
	}
}

// BenchmarkAblationGCSCLayout reproduces the §III-A explanation of
// Table III: GCSC++ built from row-major-ordered input pays for a full
// reshuffle, while input pre-ordered to its column-major layout builds
// as fast as GCSR++ does.
func BenchmarkAblationGCSCLayout(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.MSP, Dims: 4})
	shape := ds.Data.Config.Shape
	rowMajor := ds.Data.Coords

	// Pre-order a copy of the input to GCSC++'s preferred layout by
	// building once and applying the resulting permutation.
	format := gcs.NewCol()
	built, err := format.Build(rowMajor, shape)
	if err != nil {
		b.Fatal(err)
	}
	colMajor := tensor.ApplyPermCoords(rowMajor, built.Perm)

	for _, layout := range []struct {
		name   string
		coords *tensor.Coords
	}{
		{"row-major-input", rowMajor},
		{"col-major-input", colMajor},
	} {
		layout := layout
		b.Run(layout.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := format.Build(layout.coords, shape); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelBuild measures the psort-backed parallel
// build path against the paper's serial setting.
func BenchmarkAblationParallelBuild(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.TSP, Dims: 3})
	shape := ds.Data.Config.Shape
	for _, kind := range []core.Kind{core.GCSR, core.CSF, core.COOSorted} {
		for _, workers := range []int{1, 0} { // 0 = all cores
			name := fmt.Sprintf("%v/serial", kind)
			if workers != 1 {
				name = fmt.Sprintf("%v/parallel", kind)
			}
			kind := kind
			workers := workers
			b.Run(name, func(b *testing.B) {
				format, err := core.Get(kind)
				if err != nil {
					b.Fatal(err)
				}
				format = core.Configure(format, core.Options{Parallelism: workers})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := format.Build(ds.Data.Coords, shape); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationCodec measures the orthogonal compression layer:
// fragment size and write cost per codec, per organization.
func BenchmarkAblationCodec(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.GSP, Dims: 3})
	shape := ds.Data.Config.Shape
	for _, kind := range []core.Kind{core.Linear, core.COOSorted} {
		for _, codec := range []struct {
			name string
			id   store.Option
			tag  string
		}{
			{"none", store.WithCodec(0), "none"},
			{"delta-varint", store.WithCodec(1), "delta"},
			{"rle", store.WithCodec(2), "rle"},
		} {
			kind := kind
			codec := codec
			b.Run(fmt.Sprintf("%v/%s", kind, codec.name), func(b *testing.B) {
				fs := fsim.NewPerlmutterSim()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := store.Create(fs, fmt.Sprintf("c%d", i), kind, shape, codec.id)
					if err != nil {
						b.Fatal(err)
					}
					rep, err := st.Write(ds.Data.Coords, ds.Data.Values)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(rep.Bytes), "bytes/frag")
				}
			})
		}
	}
}

// BenchmarkAblationBCOO compares the HiCOO-style blocked COO extension
// against the paper's COO and LINEAR on all three patterns: index bytes
// per point and probe latency. Blocking wins big on the clustered
// patterns (TSP, MSP) and stays competitive on scattered GSP.
func BenchmarkAblationBCOO(b *testing.B) {
	for _, pattern := range []gen.Pattern{gen.TSP, gen.GSP, gen.MSP} {
		ds := dataset(b, bench.Case{Pattern: pattern, Dims: 3})
		shape := ds.Data.Config.Shape
		probe := readProbe(ds, 1000)
		for _, kind := range []core.Kind{core.COO, core.Linear, core.BCOO} {
			kind := kind
			b.Run(fmt.Sprintf("%v/%v", pattern, kind), func(b *testing.B) {
				format, err := core.Get(kind)
				if err != nil {
					b.Fatal(err)
				}
				built, err := format.Build(ds.Data.Coords, shape)
				if err != nil {
					b.Fatal(err)
				}
				r, err := format.Open(built.Payload, shape)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < probe.Len(); j++ {
						r.Lookup(probe.At(j))
					}
				}
				b.ReportMetric(float64(len(built.Payload))/float64(ds.Data.NNZ()), "bytes/point")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probe.Len()), "ns/probe")
			})
		}
	}
}

// BenchmarkAblationScanVsProbe compares the two region-read strategies:
// the paper's per-cell probing (O(n_read) probes) against scan mode
// (one pass over each fragment's points, with CSF pruning its tree).
// Probing collapses for COO/LINEAR on large windows; scanning makes
// them linear again.
func BenchmarkAblationScanVsProbe(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.GSP, Dims: 3})
	shape := ds.Data.Config.Shape
	for _, kind := range []core.Kind{core.COO, core.Linear, core.GCSR, core.CSF} {
		kind := kind
		fs := fsim.NewPerlmutterSim()
		st, err := store.Create(fs, "sv", kind, shape)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Write(ds.Data.Coords, ds.Data.Values); err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String()+"/probe", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := queryRegion(st, ds.Region, store.StrategyDefault); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(kind.String()+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := queryRegion(st, ds.Region, store.StrategyScan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompact measures fragment consolidation: read cost
// against a store fragmented by many small writes, before and after
// Compact.
func BenchmarkAblationCompact(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.MSP, Dims: 3})
	shape := ds.Data.Config.Shape
	n := ds.Data.NNZ()
	writeFragmented := func(st *store.Store) {
		const parts = 16
		for w := 0; w < parts; w++ {
			lo, hi := w*n/parts, (w+1)*n/parts
			c := tensor.NewCoords(shape.Dims(), hi-lo)
			for i := lo; i < hi; i++ {
				c.AppendFlat(ds.Data.Coords.At(i))
			}
			if _, err := st.Write(c, ds.Data.Values[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, compacted := range []bool{false, true} {
		name := "fragmented-16"
		if compacted {
			name = "compacted"
		}
		compacted := compacted
		b.Run(name, func(b *testing.B) {
			fs := fsim.NewPerlmutterSim()
			st, err := store.Create(fs, "cp", core.GCSR, shape)
			if err != nil {
				b.Fatal(err)
			}
			writeFragmented(st)
			if compacted {
				if _, err := st.Compact(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := queryRegion(st, ds.Region, store.StrategyDefault)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Fragments), "fragments")
			}
		})
	}
}

// BenchmarkTable3Breakdown emits the per-phase write breakdown for the
// paper's Table III case (4D MSP) as metrics.
func BenchmarkTable3Breakdown(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.MSP, Dims: 4})
	eachKind(b, func(b *testing.B, kind core.Kind) {
		fs := fsim.NewPerlmutterSim()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := store.Create(fs, fmt.Sprintf("t%d", i), kind, ds.Data.Config.Shape)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := st.Write(ds.Data.Coords, ds.Data.Values)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.Build.Seconds()*1e3, "build-ms")
			b.ReportMetric(rep.Reorg.Seconds()*1e3, "reorg-ms")
			b.ReportMetric(rep.Write.Seconds()*1e3, "write-ms")
			b.ReportMetric(rep.Others.Seconds()*1e3, "others-ms")
		}
	})
}

// BenchmarkIngest compares a serial Write loop against the batched
// ingest pipeline on the Table III workload (4D MSP) split into 16
// fragments. WriteBatch overlaps the CPU phases (Build, Reorg, Encode)
// across a worker pool while the committer preserves the serial loop's
// fragment order and on-disk bytes, so the speedup is pure pipeline
// overlap.
func BenchmarkIngest(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.MSP, Dims: 4})
	shape := ds.Data.Config.Shape
	const parts = 16
	n := ds.Data.NNZ()
	var batches []store.Batch
	for w := 0; w < parts; w++ {
		lo, hi := w*n/parts, (w+1)*n/parts
		c := tensor.NewCoords(shape.Dims(), hi-lo)
		for i := lo; i < hi; i++ {
			c.AppendFlat(ds.Data.Coords.At(i))
		}
		batches = append(batches, store.Batch{Coords: c, Values: ds.Data.Values[lo:hi]})
	}
	b.Run("serial-write-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := store.Create(fsim.NewPerlmutterSim(), "in", core.GCSR, shape)
			if err != nil {
				b.Fatal(err)
			}
			for _, ba := range batches {
				if _, err := st.Write(ba.Coords, ba.Values); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("batch-%dworkers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.Create(fsim.NewPerlmutterSim(), "in", core.GCSR, shape)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.WriteBatch(batches, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReaderCache measures the fragment-reader cache on
// repeated region reads: with the cache disabled every read re-fetches
// and re-decodes its fragments (cold); with a budget the fragments stay
// resident after a priming read and repeats skip the file system
// entirely (warm). The modeled-io-ms/op metric carries the simulated
// Lustre cost, which wall time on the in-memory SimFS does not show.
func BenchmarkAblationReaderCache(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.TSP, Dims: 3})
	shape := ds.Data.Config.Shape
	for _, cfg := range []struct {
		name   string
		budget int64
	}{
		{"cold", 0},
		{"warm", store.DefaultCacheBudget},
	} {
		cfg := cfg
		for _, kind := range []core.Kind{core.GCSR, core.CSF} {
			kind := kind
			b.Run(fmt.Sprintf("%s/%v", cfg.name, kind), func(b *testing.B) {
				fs := fsim.NewPerlmutterSim()
				st, err := store.Create(fs, "rc", kind, shape, store.WithReaderCache(cfg.budget))
				if err != nil {
					b.Fatal(err)
				}
				// Four fragments so a read touches several cache entries.
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
						b.Fatal(err)
					}
				}
				if _, _, err := queryRegion(st, ds.Region, store.StrategyDefault); err != nil {
					b.Fatal(err) // priming read: warms the cache when enabled
				}
				var ioNs int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, rep, err := queryRegion(st, ds.Region, store.StrategyDefault)
					if err != nil {
						b.Fatal(err)
					}
					ioNs += (rep.IO + rep.Extract).Nanoseconds()
				}
				b.ReportMetric(float64(ioNs)/1e6/float64(b.N), "modeled-io-ms/op")
			})
		}
	}
}

// BenchmarkChunkedIngest compares a serial per-batch loop of
// Chunked.Write against the cross-tile batched ingest, which prepares
// every tile's fragments on one shared worker pool and group-commits
// each tile's manifest log. The dataset fans out across the 8 tiles of
// a 2x2x2 chunked store.
func BenchmarkChunkedIngest(b *testing.B) {
	ds := dataset(b, bench.Case{Pattern: gen.MSP, Dims: 3})
	shape := ds.Data.Config.Shape
	tile := make(tensor.Shape, len(shape))
	for d := range shape {
		tile[d] = (shape[d] + 1) / 2
	}
	const parts = 16
	n := ds.Data.NNZ()
	var batches []store.Batch
	for w := 0; w < parts; w++ {
		lo, hi := w*n/parts, (w+1)*n/parts
		c := tensor.NewCoords(shape.Dims(), hi-lo)
		for i := lo; i < hi; i++ {
			c.AppendFlat(ds.Data.Coords.At(i))
		}
		batches = append(batches, store.Batch{Coords: c, Values: ds.Data.Values[lo:hi]})
	}
	b.Run("serial-write-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch, err := store.NewChunked(fsim.NewPerlmutterSim(), "ci", core.GCSR, shape, tile)
			if err != nil {
				b.Fatal(err)
			}
			for _, ba := range batches {
				if _, err := ch.Write(ba.Coords, ba.Values); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("cross-tile-%dworkers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch, err := store.NewChunked(fsim.NewPerlmutterSim(), "ci", core.GCSR, shape, tile)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ch.WriteBatch(batches, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
