package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// suiteFile writes a one-workload result file whose ops_per_s is ops
// (spread over its segments: 2 %) and returns its path.
func suiteFile(t *testing.T, dir string, i int, ops float64, failed int) string {
	t.Helper()
	m := map[string]summary{}
	for _, d := range e2eMetrics {
		m[d.Name] = summary{Value: 100, Unit: d.Unit, IQR: 2}
	}
	m["ops_per_s"] = summary{Value: ops, Unit: "1/s", IQR: ops * 0.02}
	s := suiteResult{Commit: "test", Seed: 1, Workloads: []workloadRuns{{
		Name: "point_wire", E2E: &runResult{Workload: "point_wire", Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: m},
	}}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	row := func(out, metric string) string {
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) > 1 && f[1] == metric {
				return l
			}
		}
		return ""
	}
	run := func(a, b string) (string, bool) {
		var buf bytes.Buffer
		worse, err := compareFiles("../BENCHMARK.json", a, b, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), worse
	}

	// One file a side: a 40 % loss of throughput is worse, 10 % is not.
	base := suiteFile(t, dir, 0, 1000, 0)
	out, worse := run(base, suiteFile(t, dir, 1, 600, 0))
	if !worse || !strings.HasSuffix(row(out, "ops_per_s"), "worse") || !strings.HasSuffix(row(out, "p50_ms"), "ok") {
		t.Errorf("40 %% loss:\n%s", out)
	}
	if out, worse := run(base, suiteFile(t, dir, 2, 900, 0)); worse {
		t.Errorf("10 %% loss reads worse:\n%s", out)
	}
	// Any increase of the failed share is worse.
	if out, worse := run(base, suiteFile(t, dir, 3, 1000, 1)); !worse || !strings.HasSuffix(row(out, "failed_share"), "worse") {
		t.Errorf("a failed operation:\n%s", out)
	}

	// Several files a side: the value is the median over the files and
	// the spread is taken across them. Side b's median is 30 % down, but
	// the sides' own suites differ by more than that: drift, not change.
	a := strings.Join([]string{suiteFile(t, dir, 10, 1000, 0), suiteFile(t, dir, 11, 600, 0), suiteFile(t, dir, 12, 1100, 0)}, ",")
	b := strings.Join([]string{suiteFile(t, dir, 13, 700, 0), suiteFile(t, dir, 14, 1050, 0), suiteFile(t, dir, 15, 650, 0)}, ",")
	out, worse = run(a, b)
	if worse || !strings.HasSuffix(row(out, "ops_per_s"), "unresolved") {
		t.Errorf("drifting suites:\n%s", out)
	}
	// Steady suites 40 % apart are worse.
	a = strings.Join([]string{suiteFile(t, dir, 20, 1000, 0), suiteFile(t, dir, 21, 1010, 0), suiteFile(t, dir, 22, 990, 0)}, ",")
	b = strings.Join([]string{suiteFile(t, dir, 23, 600, 0), suiteFile(t, dir, 24, 610, 0), suiteFile(t, dir, 25, 590, 0)}, ",")
	if out, worse := run(a, b); !worse || !strings.Contains(row(out, "ops_per_s"), "600.0000") {
		t.Errorf("steady suites 40 %% apart:\n%s", out)
	}

	if _, err := compareFiles("../BENCHMARK.json", base, filepath.Join(dir, "missing.json"), &bytes.Buffer{}); err == nil {
		t.Error("a missing file is not an error")
	}
}
