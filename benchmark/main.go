// Command benchmark is the wire-to-disk load benchmark. It boots a
// whole fleet in this one process over real loopback TCP (two shard
// servers over chunked stores on the real file system, a router, a
// router server, client connections), drives one of four workloads
// through it, checks every reply against an in-memory oracle, and
// reports end-to-end metrics (untraced) or per-layer metrics (traced,
// measured from outside through seams this package owns).
//
//	go run ./benchmark -seed 1                       every workload, both runs, one result file
//	go run ./benchmark -workload point_wire -trace 0 one run; the last line is the result as JSON
//	go run ./benchmark -compare a.json b.json        judge b against a by BENCHMARK.json's bounds
//
// See README.md in this directory for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	outDir         = "benchmark/out"
	defaultSeconds = 15 // BENCHMARK.json's run_seconds
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced per-layer run")
		compare  = flag.Bool("compare", false, "judge b against a: -compare a.json b.json (each side may be several files, comma-separated)")
		smoke    = flag.Bool("smoke", false, "tiny sizes, for a quick look at the plumbing")
		out      = flag.String("out", "", "suite result file (default "+outDir+"/BENCH_<commit>.json)")
	)
	flag.Parse()
	// The store reads a few SPARSEART_* knobs from the environment; a
	// measurement must not depend on the caller's shell.
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "SPARSEART_") {
			os.Unsetenv(name)
		}
	}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare a.json b.json")
			break
		}
		var worse bool
		if worse, err = compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout); err == nil && worse {
			os.Exit(1)
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace != 0, *smoke)
	default:
		err = runSuite(*seed, *seconds, *smoke, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runFile is where a single run leaves its full result for the suite.
func runFile(workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run_%s_t%d.json", workload, t))
}

// runOne is the driver's entry: one workload, one run, result on the
// last line of standard output.
func runOne(workload string, seed uint64, seconds float64, trace, smoke bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	cfg := runConfig{
		workload: workload, seed: seed, seconds: seconds, sc: &fullScale, repeats: setupRepeats,
		root:  filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid())),
		micro: 20 * time.Millisecond,
	}
	if smoke {
		cfg.sc = &smokeScale
	}
	var res *runResult
	var err error
	if trace {
		cfg.traceOut = filepath.Join(outDir, "trace_"+workload+".json")
		res, err = runTraced(cfg)
	} else {
		res, err = runE2E(cfg)
	}
	if err != nil {
		return err
	}
	printRun(res, cfg.sc)
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(runFile(workload, trace), data, 0o644); err != nil {
		return err
	}
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return nil
}

// contractLine is the last line of a run's output: whether the replies
// were right, how many operations were attempted and failed, and the
// metrics BENCHMARK.json defines for this kind of run, value and unit.
func contractLine(res *runResult) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := e2eMetrics
	if res.Trace {
		defs = perLayerMetrics
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
}

// printRun prints every metric by name with its unit and spread.
func printRun(res *runResult, sc *scale) {
	kind := "end-to-end (untraced)"
	if res.Trace {
		kind = "per-layer (traced, 1 client)"
	}
	fmt.Printf("== %s  %s  seed %d  %.0f s measured  scale %s %v tile %v\n", res.Workload, kind, res.Seed, res.Seconds, sc.Name, sc.Shape, sc.Tile)
	fmt.Printf("   closed loop, %d clients, one connection each; one process; loopback TCP, not a link; OSFS without fsync (page-cache flush policy)\n", clients)
	keys := make([]string, 0, len(res.Sizes))
	for k := range res.Sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %-32s %.0f\n", k, res.Sizes[k])
	}
	line := func(name, note string) {
		m := res.Metrics[name]
		if len(m.Repeats) > 1 {
			note = fmt.Sprintf("iqr %.2f%% over %d", 100*m.spreadShare(), len(m.Repeats))
		}
		fmt.Printf("   %-34s %14.4f %-8s  %s\n", name, m.Value, m.Unit, note)
	}
	if res.Trace {
		for _, d := range perLayerMetrics {
			line(d.Name, "["+d.Layer+"] moves "+d.Moves)
		}
	} else {
		for _, d := range e2eMetrics {
			line(d.Name, "")
		}
		var diag []string
		for name := range res.Metrics {
			if strings.HasPrefix(name, "load.") {
				diag = append(diag, name)
			}
		}
		sort.Strings(diag)
		for _, name := range diag {
			line(name, "")
		}
	}
	if len(res.Layers) > 0 {
		fmt.Println("   layer budget (self time per request; rows sum to e2e):")
		for _, l := range res.Layers {
			fmt.Printf("     %-44s %12.1f us %6.1f%%\n", l.Layer, l.SelfUs, l.SharePc)
		}
	}
	fmt.Printf("   attempted %d  failed %d  failed_share %.6f\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
}

// suiteResult is one BENCH_*.json: every workload's two runs and where
// they were measured.
type suiteResult struct {
	Claim      *string        `json:"claim"` // the benchmark claims no gain
	Date       string         `json:"date"`
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	NProc      int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Clients    int            `json:"clients"`
	Scale      scale          `json:"scale"`
	Notes      []string       `json:"notes"`
	Workloads  []workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Name   string     `json:"name"`
	Why    string     `json:"why"`
	E2E    *runResult `json:"end_to_end"`
	Traced *runResult `json:"per_layer"`
}

// commit names the tree measured; outside a git checkout it is "nogit".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload untraced and traced, each run in a
// process of its own (so peak memory and heap state are that run's
// alone and equal what the driver measures), and writes one file.
func runSuite(seed uint64, seconds float64, smoke bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sc := fullScale
	if smoke {
		sc = smokeScale
	}
	suite := suiteResult{
		Date: time.Now().UTC().Format("2006-01-02"), Commit: commit(), Seed: seed, Seconds: seconds,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Clients: clients, Scale: sc,
		Notes: []string{
			"whole fleet in one process: CPU, allocations and peak memory count client, router and shards together",
			"traffic crosses the host loopback, not a link",
			"OSFS does no fsync: flushing is the page cache's policy, the same on every commit",
			"end-to-end numbers come from the untraced run; per-layer numbers from a separate traced run with one client",
		},
	}
	for _, w := range workloads {
		runs := workloadRuns{Name: w.Name, Why: w.Why}
		for _, trace := range []bool{false, true} {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
			if trace {
				args[len(args)-1] = "1"
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.Name, trace, err)
			}
			data, err := os.ReadFile(runFile(w.Name, trace))
			if err != nil {
				return err
			}
			res := &runResult{}
			if err := json.Unmarshal(data, res); err != nil {
				return err
			}
			if trace {
				runs.Traced = res
			} else {
				runs.E2E = res
			}
		}
		suite.Workloads = append(suite.Workloads, runs)
	}
	if out == "" {
		out = filepath.Join(outDir, "BENCH_"+suite.Commit+".json")
	}
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	printSuite(&suite)
	fmt.Println("wrote", out)
	return nil
}

// printSuite prints the end-to-end table, one row per workload.
func printSuite(s *suiteResult) {
	fmt.Printf("\n%s  commit %s  seed %d  %.0f s  nproc %d  GOMAXPROCS %d  %s\n", s.Date, s.Commit, s.Seed, s.Seconds, s.NProc, s.GoMaxProcs, s.GoVersion)
	fmt.Printf("| %-12s |", "workload")
	for _, d := range e2eMetrics {
		fmt.Printf(" %s (%s) |", d.Name, d.Unit)
	}
	fmt.Println(" failed_share |")
	for _, w := range s.Workloads {
		fmt.Printf("| %-12s |", w.Name)
		for _, d := range e2eMetrics {
			fmt.Printf(" %.4g |", w.E2E.Metrics[d.Name].Value)
		}
		fmt.Printf(" %.4g |\n", float64(w.E2E.Failed)/float64(max(w.E2E.Attempted, 1)))
	}
}
