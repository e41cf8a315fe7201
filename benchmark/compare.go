package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one metric of b against a under bound. The loss is
// how much worse b is, as a share of a. It is "worse" when the loss
// exceeds the bound and the wider of the two runs' own spreads, so that
// noise alone cannot fail a change; otherwise "unresolved" when a
// spread is wider than the bound (the runs cannot tell the two apart
// to within it), else "ok".
func verdict(a, b summary, better string, bound float64) (status string, loss float64) {
	if a.Value != 0 {
		loss = (b.Value - a.Value) / a.Value
		if better == "higher" {
			loss = -loss
		}
	}
	spread := max(a.spreadShare(), b.spreadShare())
	switch {
	case loss > bound && loss > spread:
		return "worse", loss
	case spread > bound:
		return "unresolved", loss
	}
	return "ok", loss
}

// side is one side of a comparison: one result file, or several of the
// same tree (comma-separated on the command line). With several, a
// metric's value is the median over the files and its spread their
// quartile distance, which is what tells a change from the box's own
// drift between suites; with one, the file's median over segments and
// its spread over segments stand in.
type side struct {
	label   string
	e2e     map[string][]*runResult // workload → one run a file
	order   []string                // workloads, first file's order
	commits string
}

func readSide(paths string) (*side, error) {
	sd := &side{label: paths, e2e: map[string][]*runResult{}}
	for _, path := range strings.Split(paths, ",") {
		var f suiteResult
		if err := readJSON(path, &f); err != nil {
			return nil, err
		}
		sd.commits += fmt.Sprintf(" %s/seed %d", f.Commit, f.Seed)
		for _, wl := range f.Workloads {
			if wl.E2E == nil {
				return nil, fmt.Errorf("%s: workload %s has no end-to-end run", path, wl.Name)
			}
			if _, ok := sd.e2e[wl.Name]; !ok {
				sd.order = append(sd.order, wl.Name)
			}
			sd.e2e[wl.Name] = append(sd.e2e[wl.Name], wl.E2E)
		}
	}
	return sd, nil
}

// metric folds one workload's metric over the side's files.
func (sd *side) metric(workload, name string) summary {
	runs := sd.e2e[workload]
	if len(runs) == 1 {
		return runs[0].Metrics[name]
	}
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name].Value
	}
	return summarize(runs[0].Metrics[name].Unit, vals)
}

// failedShare is failed ÷ attempted over all the side's runs.
func (sd *side) failedShare(workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range sd.e2e[workload] {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareFiles prints one row per workload × end-to-end metric of side
// b judged against side a, and reports whether any row is worse.
func compareFiles(manifestPath, pathsA, pathsB string, w io.Writer) (worse bool, err error) {
	var man manifest
	if err := readJSON(manifestPath, &man); err != nil {
		return false, fmt.Errorf("bounds come from %s (run from the repository root): %w", manifestPath, err)
	}
	a, err := readSide(pathsA)
	if err != nil {
		return false, err
	}
	b, err := readSide(pathsB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (%s )\nb: %s (%s )\n", a.label, a.commits, b.label, b.commits)
	fmt.Fprintf(w, "%-13s %-26s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, name := range a.order {
		if len(b.e2e[name]) == 0 {
			return false, fmt.Errorf("workload %s is not on both sides", name)
		}
		for _, m := range man.EndToEnd {
			ma, mb := a.metric(name, m.Name), b.metric(name, m.Name)
			status, loss := verdict(ma, mb, m.Better, m.Bound)
			worse = worse || status == "worse"
			fmt.Fprintf(w, "%-13s %-26s %12.4f %12.4f %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				name, m.Name, ma.Value, mb.Value, 100*loss, 100*max(ma.spreadShare(), mb.spreadShare()), 100*m.Bound, status)
		}
		fa, fb := a.failedShare(name), b.failedShare(name)
		status := "ok"
		if fb > fa {
			status, worse = "worse", true
		}
		fmt.Fprintf(w, "%-13s %-26s %12.6f %12.6f %31s  %s\n", name, "failed_share", fa, fb, "any increase", status)
	}
	return worse, nil
}
