package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke drives all four workloads end to end, untraced and traced,
// at the smoke scale (32-cube tensor, a few seconds in all). It is part
// of tier-1 `go test ./...` so that a change to the store, serve, wire,
// fsim, fragment or core API the benchmark uses breaks the build here,
// not at the next benchmark run. It checks plumbing, not speed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{
				workload: w.Name, seed: 3, seconds: 0.3, sc: &smokeScale, repeats: 1,
				root: filepath.Join(t.TempDir(), "run"), micro: time.Millisecond,
			}
			res, err := runE2E(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 20 {
				t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range e2eMetrics {
				m, ok := res.Metrics[d.Name]
				if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s = %+v: every end-to-end metric must be measured and never 0", d.Name, m)
				}
			}
			if n := len(res.Metrics["p50_ms"].Repeats); n != segmentCount {
				t.Errorf("p50_ms has %d repeats, want one a segment", n)
			}
			if _, err := os.Stat(cfg.root); !os.IsNotExist(err) {
				t.Errorf("the run left %s behind", cfg.root)
			}

			cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
			tr, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Attempted < 20 {
				t.Fatalf("traced: correct %v, attempted %d, failed %d", tr.Correct, tr.Attempted, tr.Failed)
			}
			for _, d := range perLayerMetrics {
				if m, ok := tr.Metrics[d.Name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v: every per-layer metric must be reported", d.Name, m)
				}
			}
			val := func(name string) float64 { return tr.Metrics[name].Value }
			share := val("trace.share.wire_serve_pct") + val("trace.share.store_pct") + val("trace.share.fsim_pct")
			if math.Abs(share-100) > 1e-6 {
				t.Errorf("layer shares sum to %v%%, want 100", share)
			}
			if len(tr.Layers) != 4 || val("serve.client_hop_us") <= 0 || val("serve.router_self_us") <= 0 || val("serve.router_fanout") < 1 {
				t.Errorf("layer table %+v, client hop %v, router self %v", tr.Layers, val("serve.client_hop_us"), val("serve.router_self_us"))
			}
			if wrote := val("fsim.write_kb") > 0; wrote != (w.Name == "ingest_mixed") {
				t.Errorf("fsim.write_kb = %v: only ingest_mixed writes while measured", val("fsim.write_kb"))
			}
			for _, name := range []string{"wire.req_bytes", "wire.resp_bytes", "serve.null_hop_us", "fragment.bytes_per_nnz", "core.csf.probe_ns", "core.coo.scan_ns_per_nnz", "fsim.write_amp", "load.samples"} {
				if val(name) <= 0 {
					t.Errorf("%s = %v", name, val(name))
				}
			}
			if info, err := os.Stat(cfg.traceOut); err != nil || info.Size() == 0 {
				t.Errorf("no Chrome trace written: %v", err)
			}

			// The line the driver reads: exactly the contract's keys.
			for _, r := range []*runResult{res, tr} {
				line, err := contractLine(r)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]map[string]any
				}
				var raw map[string]any
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				_ = json.Unmarshal(line, &raw) // same bytes just parsed
				want := len(e2eMetrics)
				if r.Trace {
					want = len(perLayerMetrics)
				}
				if len(raw) != 4 || got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != want {
					t.Fatalf("contract line %s", line)
				}
				for name, m := range got.Metrics {
					if _, ok := m["value"].(float64); !ok || len(m) != 2 || m["unit"] == "" {
						t.Errorf("metric %s = %v", name, m)
					}
				}
			}
		})
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	_, err := runE2E(runConfig{workload: "nope", sc: &smokeScale, repeats: 1, root: filepath.Join(t.TempDir(), "run")})
	if err == nil {
		t.Fatal("no error")
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units and directions, inside the contract's
// limits; the bounds live in BENCHMARK.json alone.
func TestManifestMatchesProgram(t *testing.T) {
	var raw struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	var man manifest
	for _, v := range []any{&raw, &man} {
		if err := readJSON("../BENCHMARK.json", v); err != nil {
			t.Fatal(err)
		}
	}
	if raw.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", raw.RunSeconds, defaultSeconds)
	}
	if len(raw.Paths) != 1 || raw.Paths[0] != "benchmark" {
		t.Errorf("paths %v", raw.Paths)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (%d chars) vs program %q", i, w.Name, len(w.Why), workloads[i].Name)
		}
	}
	if len(man.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(man.EndToEnd), len(e2eMetrics))
	}
	setup := 0.0
	for i, m := range man.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v vs program %+v", i, m, d)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has bound %v, above setup_s's %v: set-up gets the largest", m.Name, m.Bound, setup)
		}
	}
	if len(man.PerLayer) != len(perLayerMetrics) || len(man.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, program has %d", len(man.PerLayer), len(perLayerMetrics))
	}
	for i, m := range man.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || len(m.Unit) > 16 || len(m.Name) > 64 {
			t.Errorf("per-layer %d: %+v vs program %+v", i, m, d)
		}
	}
}
