// Command sparsebench regenerates every table and figure of the paper's
// evaluation section:
//
//	fig1    the worked example of every organization (Figure 1)
//	table1  symbolic complexity table (Table I)
//	table2  dataset sizes and densities (Table II)
//	table3  write-time breakdown for 4D MSP (Table III)
//	table4  overall scores (Table IV)
//	fig3    write times across the 3x3 dataset matrix (Figure 3)
//	fig4    fragment file sizes (Figure 4)
//	fig5    read times (Figure 5)
//	ablations  the design-choice ablation studies of DESIGN.md §4
//	all     everything above in paper order (ablations run only when named)
//
// By default measurements run against the simulated Lustre backend
// calibrated to the paper's Table III, at a reduced problem scale; use
// -scale paper for the paper's sizes and -fs os for real file I/O.
//
// Usage:
//
//	sparsebench [-experiment all] [-scale small|medium|paper]
//	            [-fs sim|os] [-seed N] [-csv file] [-quiet]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sparseart/internal/bench"
	"sparseart/internal/fsim"
	"sparseart/internal/gen"
	"sparseart/internal/obs"
	"sparseart/internal/obs/export"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: table1|ablations|table2|table3|table4|fig3|fig4|fig5|all (comma-separated)")
		scaleName  = flag.String("scale", "small", "problem scale: small|medium|paper")
		fsName     = flag.String("fs", "sim", "file-system backend: sim (calibrated Lustre model) or os (real files)")
		osDir      = flag.String("dir", "", "root directory for -fs os (default: a temp dir)")
		seed       = flag.Uint64("seed", 42, "generator seed")
		csvPath    = flag.String("csv", "", "also write raw measurements as CSV to this file")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		probeLimit = flag.Int("probe-limit", -1, "max probe points per read; larger regions are subsampled and extrapolated (default: exact below paper scale, 100000 at paper scale; 0 forces exact)")
		trials     = flag.Int("trials", 1, "repeat each measurement and report per-phase medians")
		chart      = flag.Bool("chart", false, "render fig3/fig4/fig5 as grouped bar charts instead of tables")
		metrics    = flag.String("metrics", "", "enable the obs registry and write its JSON snapshot to this file after the run")
		trace      = flag.Bool("trace", false, "enable the obs registry and print the span timeline to stderr after the run")
		chromeOut  = flag.String("chrome-trace", "", "enable the obs registry and write the span timeline as Chrome trace_event JSON to this file (load in chrome://tracing or ui.perfetto.dev)")
	)
	flag.Parse()
	if err := run(*experiment, *scaleName, *fsName, *osDir, *seed, *csvPath, *quiet, *probeLimit, *trials, *chart, obsOutputs{
		metricsPath: *metrics, trace: *trace, chromePath: *chromeOut,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sparsebench:", err)
		os.Exit(1)
	}
}

// obsOutputs collects the flags that export the run's obs registry.
// Any being set enables observation for the run.
type obsOutputs struct {
	metricsPath string // raw snapshot JSON
	trace       bool   // span timeline to stderr
	chromePath  string // Chrome trace_event JSON
}

func (o obsOutputs) enabled() bool {
	return o.metricsPath != "" || o.trace || o.chromePath != ""
}

func run(experiment, scaleName, fsName, osDir string, seed uint64, csvPath string, quiet bool, probeLimit, trials int, chart bool, obsOut obsOutputs) error {
	scale, err := gen.ParseScale(scaleName)
	if err != nil {
		return err
	}
	if probeLimit < 0 {
		probeLimit = 0
		if scale == gen.Paper {
			probeLimit = 100000
		}
	}
	wanted := map[string]bool{}
	for _, e := range strings.Split(experiment, ",") {
		e = strings.TrimSpace(e)
		switch e {
		case "all":
			for _, x := range []string{"table1", "table2", "table3", "table4", "fig3", "fig4", "fig5"} {
				wanted[x] = true
			}
		case "table1", "table2", "table3", "table4", "fig1", "fig3", "fig4", "fig5", "ablations":
			wanted[e] = true
		default:
			return fmt.Errorf("unknown experiment %q", e)
		}
	}

	if obsOut.enabled() {
		obs.Enable()
	}

	var log io.Writer
	if !quiet {
		log = os.Stderr
	}
	runner := &bench.Runner{Scale: scale, Seed: seed, Log: log, ProbeLimit: probeLimit, Trials: trials}
	// When table3 is the only measured experiment, run just its cell:
	// faster, and the -metrics snapshot totals then correspond to the
	// rendered breakdown one-for-one.
	if wanted["table3"] && !wanted["table2"] && !wanted["table4"] &&
		!wanted["fig3"] && !wanted["fig4"] && !wanted["fig5"] {
		runner.Cases = []bench.Case{{Pattern: gen.MSP, Dims: 4}}
	}
	switch fsName {
	case "sim":
		// The default Runner backend is the calibrated SimFS.
	case "os":
		dir := osDir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "sparsebench-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		n := 0
		runner.NewFS = func() (fsim.FS, error) {
			n++
			return fsim.NewOSFS(filepath.Join(dir, fmt.Sprintf("cell-%03d", n)))
		}
	default:
		return fmt.Errorf("unknown -fs %q", fsName)
	}

	// table1 is purely analytic; everything else needs measurements.
	needRun := wanted["table2"] || wanted["table3"] || wanted["table4"] ||
		wanted["fig3"] || wanted["fig4"] || wanted["fig5"]

	if wanted["fig1"] {
		text, err := bench.RenderFig1()
		if err != nil {
			return err
		}
		fmt.Println(text)
	}
	if wanted["table1"] {
		fmt.Println(bench.RenderTableI())
	}
	if wanted["ablations"] {
		text, err := bench.RenderAblations(scale, seed, log)
		if err != nil {
			return err
		}
		fmt.Print(text)
	}
	if !needRun {
		return dumpObs(obsOut)
	}

	ms, dss, err := runner.Run()
	if err != nil {
		return err
	}
	if wanted["table2"] {
		fmt.Println(bench.RenderTableII(dss))
	}
	fig3, fig4, fig5 := bench.RenderFig3, bench.RenderFig4, bench.RenderFig5
	if chart {
		fig3, fig4, fig5 = bench.RenderFig3Chart, bench.RenderFig4Chart, bench.RenderFig5Chart
	}
	if wanted["fig3"] {
		fmt.Println(fig3(ms))
	}
	if wanted["table3"] {
		fmt.Println(bench.RenderTableIII(ms, bench.Case{Pattern: gen.MSP, Dims: 4}))
	}
	if wanted["fig4"] {
		fmt.Println(fig4(ms))
	}
	if wanted["fig5"] {
		fmt.Println(fig5(ms))
	}
	if wanted["table4"] {
		fmt.Println(bench.RenderTableIV(ms))
		fmt.Println(bench.RenderTableIVSensitivity(ms))
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(bench.CSV(ms)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", csvPath)
	}
	return dumpObs(obsOut)
}

// dumpObs exports the process-wide obs registry after a run, in every
// format the flags asked for: the raw JSON snapshot, the Chrome trace,
// and the stderr span timeline.
func dumpObs(o obsOutputs) error {
	reg := obs.Global()
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	if o.metricsPath != "" {
		data, err := snap.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.metricsPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.metricsPath)
	}
	if o.chromePath != "" {
		data, err := export.ChromeTrace(snap)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.chromePath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.chromePath)
	}
	if o.trace {
		fmt.Fprintln(os.Stderr, "span timeline:")
		snap.WriteTimeline(os.Stderr, 0)
	}
	return nil
}
