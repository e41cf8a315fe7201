package export

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparseart/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// canonicalSnapshot builds one snapshot exercising every exporter
// feature: labeled and unlabeled counters, gauges, histograms spanning
// the zero bucket through millisecond buckets, a label value full of
// metacharacters, and hand-fixed trace spans (spans carry wall times
// and random IDs, so golden tests pin them rather than record them).
func canonicalSnapshot() *obs.Snapshot {
	reg := obs.New()
	reg.Counter("store.write.count", "kind", "CSF").Add(3)
	reg.Counter("store.write.bytes", "kind", "CSF").Add(4096)
	reg.Counter("store.write.count", "kind", "COO").Add(2)
	reg.Counter("fragcache.hits").Add(10)
	reg.Counter("fragcache.hits", "scope", "t-1-2").Add(7)
	reg.Counter("fragcache.hits", "scope", `odd"value,with=meta\and`+"\nnewline").Inc()
	reg.Gauge("store.fragments", "kind", "CSF").Set(5)
	reg.Gauge("fragcache.bytes").Set(1 << 20)
	h := reg.Histogram("store.write.build", "kind", "CSF")
	h.Observe(0)
	h.Observe(800 * time.Nanosecond)
	h.Observe(801 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(900 * time.Microsecond)
	reg.Histogram("store.read.io").Observe(42 * time.Millisecond)
	snap := reg.Snapshot()
	const t0 = 1_700_000_000_000_000_000
	span := func(id, parent uint64, name string, depth int, start, dur int64) obs.TraceSpan {
		return obs.TraceSpan{TraceHi: 0xabc, TraceLo: 0xdef, SpanID: id, ParentID: parent,
			Name: name, Proc: "sparseart", Depth: depth, StartUnixNs: t0 + start, DurNs: dur}
	}
	snap.TraceSpans = []obs.TraceSpan{
		span(1, 0, "store.write", 0, 0, 14_100_000),
		span(2, 1, "store.write.build", 1, 1_000, 2_300_000),
		span(3, 1, "store.write.reorg", 1, 2_301_000, 150_000),
		span(4, 1, "store.write.write", 1, 2_451_000, 11_000_000),
		span(5, 0, "store.read", 0, 20_000_000, 5_000_000),
	}
	snap.TraceSpans[4].Attrs = []obs.Attr{{Key: "kind", Str: "CSF"}, {Key: "fragments", Int: 3}}
	return snap
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs/export -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestPrometheusGolden(t *testing.T) {
	checkGolden(t, "canonical.prom.txt", Prometheus(canonicalSnapshot()))
}

func TestChromeTraceGolden(t *testing.T) {
	out, err := ChromeTrace(canonicalSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "canonical.trace.json", out)
}

// randomRegistry fills a registry with seeded-random metrics, the
// well-formedness test's snapshot source.
func randomRegistry(rng *rand.Rand) *obs.Registry {
	reg := obs.New()
	kinds := []string{"COO", "LINEAR", "GCSR++", "CSF", "weird\"label\\value,=x"}
	for i := 0; i < 30; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		reg.Counter("prop.ops", "kind", kind).Add(rng.Int63n(1 << 40))
		reg.Gauge("prop.level", "kind", kind).Set(rng.Int63n(1<<40) - (1 << 39))
		// Durations across the full bucket range, including zero.
		d := time.Duration(0)
		if rng.Intn(5) > 0 {
			d = time.Duration(rng.Int63n(int64(1) << uint(rng.Intn(40))))
		}
		reg.Histogram("prop.lat", "kind", kind).Observe(d)
	}
	return reg
}

// TestPrometheusWellFormed runs the canonical and random snapshots
// through the exposition writer and the strict parser, then pins
// _count/_sum agreement with the snapshot for every histogram series
// and value agreement for every counter and gauge.
func TestPrometheusWellFormed(t *testing.T) {
	snaps := []*obs.Snapshot{canonicalSnapshot()}
	for seed := int64(1); seed <= 10; seed++ {
		snaps = append(snaps, randomRegistry(rand.New(rand.NewSource(seed))).Snapshot())
	}
	for si, snap := range snaps {
		text := Prometheus(snap)
		fams, err := ParsePrometheus(text)
		if err != nil {
			t.Fatalf("snapshot %d: %v\n%s", si, err, text)
		}
		// Index parsed samples back by canonical obs name.
		counterVals := map[string]float64{}
		gaugeVals := map[string]float64{}
		histCount := map[string]float64{}
		histSum := map[string]float64{}
		for _, fam := range fams {
			for _, s := range fam.Samples {
				flat := make([]string, 0, 2*len(s.Labels))
				for _, l := range s.Labels {
					if fam.Type == "histogram" && l.Key == "le" {
						continue
					}
					flat = append(flat, l.Key, l.Value)
				}
				switch fam.Type {
				case "counter":
					counterVals[obs.Name(strings.TrimSuffix(fam.Name, "_total"), flat...)] = s.Value
				case "gauge":
					gaugeVals[obs.Name(fam.Name, flat...)] = s.Value
				case "histogram":
					base := obs.Name(strings.TrimSuffix(fam.Name, "_seconds"), flat...)
					if strings.HasSuffix(s.Name, "_count") {
						histCount[base] = s.Value
					}
					if strings.HasSuffix(s.Name, "_sum") {
						histSum[base] = s.Value
					}
				}
			}
		}
		for name, v := range snap.Counters {
			key := promKeyed(name)
			if got, ok := counterVals[key]; !ok || got != float64(v) {
				t.Fatalf("snapshot %d: counter %q: parsed %v (present %v), want %d", si, name, got, ok, v)
			}
		}
		for name, v := range snap.Gauges {
			key := promKeyed(name)
			if got, ok := gaugeVals[key]; !ok || got != float64(v) {
				t.Fatalf("snapshot %d: gauge %q: parsed %v (present %v), want %d", si, name, got, ok, v)
			}
		}
		for name, hs := range snap.Histograms {
			key := promKeyed(name)
			if got, ok := histCount[key]; !ok || got != float64(hs.Count) {
				t.Fatalf("snapshot %d: histogram %q _count = %v (present %v), want %d", si, name, got, ok, hs.Count)
			}
			wantSum := float64(hs.SumNs) / 1e9
			if got := histSum[key]; math.Abs(got-wantSum) > math.Abs(wantSum)*1e-12+1e-12 {
				t.Fatalf("snapshot %d: histogram %q _sum = %v, want %v", si, name, got, wantSum)
			}
		}
	}
}

// promKeyed re-renders a canonical obs name the way it comes back from
// the Prometheus parser: family untouched (the family charsets under
// test are already Prometheus-clean except the dots, which both sides
// drop), label keys sanitized.
func promKeyed(name string) string {
	fam, labels := obs.ParseName(name)
	flat := make([]string, 0, 2*len(labels))
	for _, l := range labels {
		flat = append(flat, promLabelName(l.Key), l.Value)
	}
	return obs.Name(promName(fam), flat...)
}

// TestPrometheusParserRejects pins the parser's strictness: each
// mutation of a valid exposition must fail.
func TestPrometheusParserRejects(t *testing.T) {
	for _, bad := range []string{
		"no_type_line 1\n",
		"# TYPE m counter\nm{x=\"v\" 1\n",                        // unterminated labels
		"# TYPE m counter\nm{x=\"v\\q\"} 1\n",                    // bad escape
		"# TYPE m counter\nm 1 2 3\n",                            // trailing junk
		"# TYPE m counter\nm notanumber\n",                       // bad value
		"# TYPE m counter\n# TYPE m gauge\n",                     // duplicate TYPE
		"# TYPE m wat\n",                                         // unknown type
		"# TYPE 0m counter\n",                                    // bad name
		"# TYPE m counter\nm{0x=\"v\"} 1\n",                      // bad label name
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\n", // no _count
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n", // buckets exceed +Inf
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 1\n",                       // +Inf != count
	} {
		if _, err := ParsePrometheus([]byte(bad)); err == nil {
			t.Errorf("parser accepted malformed input:\n%s", bad)
		}
	}
}

// TestChromeTraceShape decodes the trace JSON and checks every trace
// span became a complete event on the track of its depth, carrying its
// identity.
func TestChromeTraceShape(t *testing.T) {
	snap := canonicalSnapshot()
	out, err := ChromeTrace(snap)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &tr); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Tid < 1 {
				t.Fatalf("complete event %q on tid %d", e.Name, e.Tid)
			}
			if e.Args["trace_id"] != snap.TraceSpans[0].TraceID() || e.Args["span_id"] == nil {
				t.Fatalf("complete event %q args %v lack its trace identity", e.Name, e.Args)
			}
		case "M":
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if complete != len(snap.TraceSpans) {
		t.Fatalf("complete events = %d, want %d", complete, len(snap.TraceSpans))
	}
	// Spot-check the root span's mapping to microseconds.
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Name == "store.write" {
			if e.Ts != 0 || e.Dur != 14100 || e.Tid != 1 {
				t.Fatalf("store.write event = ts %v dur %v tid %d", e.Ts, e.Dur, e.Tid)
			}
		}
	}
}
