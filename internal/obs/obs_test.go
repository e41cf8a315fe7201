package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	// None of these may panic, and all handles must be usable no-ops.
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("z")
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram recorded")
	}
	sp := r.Start("op")
	child := sp.Child("phase")
	child.Add(time.Second)
	if child.End() != 0 || sp.End() != 0 {
		t.Fatal("nil span returned a duration")
	}
	if r.InFlight() != 0 {
		t.Fatal("nil registry in flight")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.TraceSpans) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if _, err := snap.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestName(t *testing.T) {
	for _, tc := range []struct {
		family string
		labels []string
		want   string
	}{
		{"a.b", nil, "a.b"},
		{"a.b", []string{"k", "v"}, "a.b{k=v}"},
		{"a.b", []string{"z", "1", "a", "2"}, "a.b{a=2,z=1}"},
		{"a.b", []string{"odd"}, "a.b"},
	} {
		if got := Name(tc.family, tc.labels...); got != tc.want {
			t.Errorf("Name(%q, %v) = %q, want %q", tc.family, tc.labels, got, tc.want)
		}
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	r.Counter("ops", "kind", "COO").Add(5)
	r.Counter("ops", "kind", "COO").Inc()
	if got := r.Counter("ops", "kind", "COO").Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	r.Gauge("depth").Set(4)
	r.Gauge("depth").Add(-1)
	if got := r.Gauge("depth").Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	h := r.Histogram("lat")
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}
	h.Observe(-time.Second) // clamped to zero, still counted
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	want := time.Microsecond + 3*time.Microsecond + time.Millisecond
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	s := h.snapshot()
	if s.MinNs != 0 {
		t.Fatalf("min = %d, want 0 (clamped negative)", s.MinNs)
	}
	if s.MaxNs != int64(time.Millisecond) {
		t.Fatalf("max = %d", s.MaxNs)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Fatalf("bucket counts sum to %d", total)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11}
	for ns, want := range cases {
		if got := bucketOf(ns); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", ns, got, want)
		}
		if got := bucketOf(ns); BucketLow(got) > ns {
			t.Errorf("BucketLow(bucketOf(%d)) = %d > %d", ns, BucketLow(got), ns)
		}
	}
}

func TestSpans(t *testing.T) {
	r := New()
	sp := r.StartRemote(NewTrace(true), "op")
	if r.InFlight() != 1 {
		t.Fatalf("in flight = %d", r.InFlight())
	}
	child := sp.Child("op.phase")
	child.Add(10 * time.Millisecond)
	d := child.End()
	if d < 10*time.Millisecond {
		t.Fatalf("child duration %v missing Add", d)
	}
	if child.End() != 0 {
		t.Fatal("double End recorded twice")
	}
	sp.End()
	if r.InFlight() != 0 {
		t.Fatalf("in flight after end = %d", r.InFlight())
	}
	snap := r.Snapshot()
	if len(snap.TraceSpans) != 2 {
		t.Fatalf("%d trace spans", len(snap.TraceSpans))
	}
	// Child ends first, so it is span 0, at depth 1.
	if snap.TraceSpans[0].Name != "op.phase" || snap.TraceSpans[0].Depth != 1 {
		t.Fatalf("span 0 = %+v", snap.TraceSpans[0])
	}
	if snap.TraceSpans[1].Name != "op" || snap.TraceSpans[1].Depth != 0 {
		t.Fatalf("span 1 = %+v", snap.TraceSpans[1])
	}
	// Span durations feed same-named histograms.
	if snap.Histograms["op.phase"].Count != 1 {
		t.Fatal("span histogram missing")
	}
	var text, tl bytes.Buffer
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "op.phase") {
		t.Fatal("text export missing histogram")
	}
	// The timeline lists spans in start order: the parent first.
	if err := snap.WriteTimeline(&tl, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tl.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], " op ") || !strings.Contains(lines[1], "  op.phase") {
		t.Fatalf("timeline:\n%s", tl.String())
	}
}

// TestSnapshotBoundedUnderUnsampledSpans: an unsampled span feeds its
// histogram and nothing else, so a registry's snapshot does not grow
// with the number of spans it has ended — only the histogram counts
// and buckets move.
func TestSnapshotBoundedUnderUnsampledSpans(t *testing.T) {
	r := New()
	pairs := func(n int) {
		for i := 0; i < n; i++ {
			sp := r.Start("op")
			sp.Child("op.phase").End()
			sp.End()
		}
	}
	export := func() (whole, rest []byte) {
		snap := r.Snapshot()
		whole, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		snap.Histograms = nil
		rest, err = snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return whole, rest
	}
	pairs(10)
	small, smallRest := export()
	pairs(10_000 - 10)
	big, bigRest := export()
	if !bytes.Equal(smallRest, bigRest) {
		t.Fatalf("snapshot outside the histograms grew from %d to %d bytes", len(smallRest), len(bigRest))
	}
	// Slack for the two histograms' counts and buckets: at most 64
	// buckets each, well under 64 bytes a bucket.
	if len(big) > len(small)+2*64*64 {
		t.Fatalf("snapshot JSON grew from %d to %d bytes over 10 000 span pairs", len(small), len(big))
	}
	if got := r.Snapshot().Histograms["op"].Count; got != 10_000 {
		t.Fatalf("op histogram count = %d, want 10000", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a", "k", "v").Add(42)
	r.Gauge("g").Set(-3)
	r.Histogram("h").Observe(time.Millisecond)
	sp := r.Start("op")
	sp.Child("op.x").End()
	sp.End()
	r.Start("leak") // deliberately left open: InFlight must export

	snap := r.Snapshot()
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", snap, back)
	}
	again, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-export differs from export")
	}
	if back.InFlight != 1 {
		t.Fatalf("in flight = %d, want 1", back.InFlight)
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	// "spans" and "span_drops" were the fields of a per-registry
	// timeline the snapshot no longer carries: refused like any other
	// unknown field.
	for _, bad := range []string{"", "{", `{"counters": []}`, `{"bogus_field": 1}`,
		`{"spans": [{"name": "x", "depth": 0, "start_ns": 0, "dur_ns": 1}]}`, `{"span_drops": 2}`} {
		if _, err := DecodeSnapshot([]byte(bad)); err == nil {
			t.Errorf("DecodeSnapshot(%q) accepted", bad)
		}
	}
}

func TestGlobalHelpers(t *testing.T) {
	prev := SetGlobal(nil)
	defer SetGlobal(prev)

	// Disabled: shared no-op, nothing recorded anywhere.
	stop := Time("x")
	stop()
	Count("x", 5)
	if Global() != nil {
		t.Fatal("global registry not nil")
	}

	r := Enable()
	defer SetGlobal(nil)
	stop = Time("x", "kind", "CSF")
	time.Sleep(time.Microsecond)
	stop()
	Count("y", 2)
	snap := r.Snapshot()
	if snap.Histograms["x{kind=CSF}"].Count != 1 {
		t.Fatal("Time did not record")
	}
	if snap.Counters["y"] != 2 {
		t.Fatal("Count did not record")
	}
}

func TestSnapshotJSONIsValidJSON(t *testing.T) {
	r := New()
	r.Counter(`weird"name`, "k", `v,x=y`).Inc()
	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var anyJSON map[string]any
	if err := json.Unmarshal(data, &anyJSON); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
}
