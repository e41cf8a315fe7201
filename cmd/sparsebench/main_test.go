package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/obs"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		r.Close()
		done <- buf.String()
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestRunTable1Only(t *testing.T) {
	out, err := capture(t, func() error {
		return run("table1", "small", "sim", "", 1, "", true, 0, 1, false, obsOutputs{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "O(n log n + 2n)") {
		t.Fatalf("table1 output:\n%s", out)
	}
	if strings.Contains(out, "Figure") {
		t.Fatal("table1 run produced measurement output")
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	out, err := capture(t, func() error {
		return run("table2", "small", "sim", "", 1, csv, true, 0, 2, false, obsOutputs{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table II") {
		t.Fatalf("table2 output:\n%s", out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+9*5 {
		t.Fatalf("CSV has %d lines, want header + 45", len(lines))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("fig9", "small", "sim", "", 1, "", true, 0, 1, false, obsOutputs{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run("table1", "galactic", "sim", "", 1, "", true, 0, 1, false, obsOutputs{}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run("table1", "small", "nfs", "", 1, "", true, 0, 1, false, obsOutputs{}); err == nil {
		t.Error("unknown fs accepted")
	}
}

func TestRunOSBackend(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run("fig4", "small", "os", dir, 1, "", true, 0, 1, false, obsOutputs{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 4") {
		t.Fatalf("fig4 output:\n%s", out)
	}
	// The OS backend actually wrote fragment files.
	found := false
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.Contains(p, "frag-") {
			found = true
		}
		return nil
	})
	if !found {
		t.Fatal("no fragment files on the OS backend")
	}
}

func TestRunFig1(t *testing.T) {
	out, err := capture(t, func() error {
		return run("fig1", "small", "sim", "", 1, "", true, 0, 1, false, obsOutputs{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "nfibs: 2, 3, 5", "row_ptr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunChartMode(t *testing.T) {
	out, err := capture(t, func() error {
		return run("fig4", "small", "sim", "", 1, "", true, 0, 1, true, obsOutputs{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "log-scaled bars") || !strings.Contains(out, "#") {
		t.Fatalf("chart output:\n%s", out)
	}
}

// TestMetricsAgreeWithTableIII is the acceptance check for the obs
// layer: running table3 with -metrics must produce a JSON snapshot
// whose per-phase write totals (the independently timed span
// histograms) agree with the Table III breakdown (the kind-labeled
// histograms, which mirror the hand-rolled WriteReport rows) within 5%,
// with a small absolute floor for near-zero phases like COO's build.
func TestMetricsAgreeWithTableIII(t *testing.T) {
	defer obs.SetGlobal(nil)
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	out, err := capture(t, func() error {
		return run("table3", "small", "sim", "", 1, "", true, 0, 1, false, obsOutputs{metricsPath: metrics})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "Sum (observed)") {
		t.Fatalf("table3 output:\n%s", out)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"store.write.build", "store.write.reorg", "store.write.write", "store.write.others"} {
		observed := snap.Histograms[phase].Sum()
		var reported time.Duration
		for _, k := range core.PaperKinds() {
			name := obs.Name(phase, "kind", k.String())
			h, ok := snap.Histograms[name]
			if !ok {
				t.Fatalf("snapshot missing %s", name)
			}
			reported += h.Sum()
		}
		diff := time.Duration(math.Abs(float64(observed - reported)))
		tol := reported / 20 // 5%
		if tol < 2*time.Millisecond {
			tol = 2 * time.Millisecond
		}
		if diff > tol {
			t.Errorf("%s: observed %v vs reported %v (diff %v > tol %v)", phase, observed, reported, diff, tol)
		}
	}
	if snap.InFlight != 0 {
		t.Errorf("snapshot reports %d in-flight spans after the run", snap.InFlight)
	}
}

func TestRunTraceTimeline(t *testing.T) {
	defer obs.SetGlobal(nil)
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		r.Close()
		done <- buf.String()
	}()
	_, runErr := capture(t, func() error {
		return run("table3", "small", "sim", "", 1, "", true, 0, 1, false, obsOutputs{trace: true})
	})
	w.Close()
	os.Stderr = oldErr
	errOut := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{"span timeline:", "store.write", "store.write.build", "store.read"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("trace output missing %q:\n%s", want, errOut)
		}
	}
}

func TestRunTable4IncludesSensitivity(t *testing.T) {
	out, err := capture(t, func() error {
		return run("table4", "small", "sim", "", 1, "", true, 0, 1, false, obsOutputs{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table IV:", "sensitivity", "write-heavy", "space-heavy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table4 output missing %q:\n%s", want, out)
		}
	}
}

// TestChromeTraceOutput: -chrome-trace writes a trace_event document
// whose events reflect the run (the write spans).
func TestChromeTraceOutput(t *testing.T) {
	defer obs.SetGlobal(nil)
	trace := filepath.Join(t.TempDir(), "trace.json")
	if _, err := capture(t, func() error {
		return run("table3", "small", "sim", "", 1, "", true, 0, 1, false,
			obsOutputs{chromePath: trace})
	}); err != nil {
		t.Fatal(err)
	}

	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"ph": "X"`, "store.write"} {
		if !strings.Contains(string(tdata), want) {
			t.Fatalf("-chrome-trace output missing %s:\n%.400s", want, tdata)
		}
	}
}
