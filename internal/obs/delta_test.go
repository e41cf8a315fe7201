package obs

import (
	"reflect"
	"testing"
	"time"
)

// TestDeltaAbsorbReproduces is the inverse-of-merge property: snapshot
// a registry (prev), keep working, snapshot again (cur); absorbing
// Delta(prev, cur) into a clone of prev's state reproduces cur's
// counters and histogram contents exactly.
func TestDeltaAbsorbReproduces(t *testing.T) {
	r := New()
	tc := NewTrace(true)
	work := func(n int) {
		for i := 0; i < n; i++ {
			r.Counter("ops", "kind", "CSF").Inc()
			r.Counter("bytes").Add(int64(10 * (i + 1)))
			r.Gauge("fragments").Set(int64(i))
			r.Histogram("lat").Observe(time.Duration(i%5+1) * time.Millisecond)
			r.StartRemote(tc, "op").End()
		}
	}
	work(7)
	prev := r.Snapshot()
	work(13)
	cur := r.Snapshot()

	d := Delta(prev, cur)

	// Rebuild prev's registry from its snapshot and absorb the delta.
	merged := New()
	merged.Absorb(prev)
	merged.Absorb(d)
	got := merged.Snapshot()

	if !reflect.DeepEqual(got.Counters, cur.Counters) {
		t.Fatalf("counters after absorb(delta):\n%v\nwant\n%v", got.Counters, cur.Counters)
	}
	if !reflect.DeepEqual(got.Gauges, cur.Gauges) {
		t.Fatalf("gauges after absorb(delta):\n%v\nwant\n%v", got.Gauges, cur.Gauges)
	}
	for name, want := range cur.Histograms {
		h := got.Histograms[name]
		if h.Count != want.Count || h.SumNs != want.SumNs || !reflect.DeepEqual(h.Buckets, want.Buckets) {
			t.Fatalf("histogram %s after absorb(delta): %+v want %+v", name, h, want)
		}
	}
	if !reflect.DeepEqual(got.TraceSpans, cur.TraceSpans) {
		t.Fatalf("trace spans after absorb(delta): %d want %d", len(got.TraceSpans), len(cur.TraceSpans))
	}
}

// TestDeltaOmitsIdle verifies a delta across an idle interval is empty
// apart from gauges (instantaneous) and in-flight bookkeeping.
func TestDeltaOmitsIdle(t *testing.T) {
	r := New()
	r.Counter("ops").Add(3)
	r.Gauge("g").Set(9)
	r.Histogram("lat").Observe(time.Millisecond)
	prev := r.Snapshot()
	cur := r.Snapshot()
	d := Delta(prev, cur)
	if len(d.Counters) != 0 {
		t.Fatalf("idle delta has counters: %v", d.Counters)
	}
	if len(d.Histograms) != 0 {
		t.Fatalf("idle delta has histograms: %v", d.Histograms)
	}
	if len(d.TraceSpans) != 0 {
		t.Fatalf("idle delta has trace spans: %v", d.TraceSpans)
	}
	if d.Gauges["g"] != 9 {
		t.Fatalf("delta gauge = %v, want current value", d.Gauges)
	}
}

// TestDeltaReset: a counter that moved backwards (registry swapped)
// comes through at its current cumulative value.
func TestDeltaReset(t *testing.T) {
	prev := &Snapshot{Counters: map[string]int64{"ops": 100}}
	cur := &Snapshot{Counters: map[string]int64{"ops": 4}}
	d := Delta(prev, cur)
	if d.Counters["ops"] != 4 {
		t.Fatalf("reset delta = %v, want 4", d.Counters)
	}
}

// TestDeltaNilPrev: with no baseline the delta is the current snapshot.
func TestDeltaNilPrev(t *testing.T) {
	r := New()
	r.Counter("ops").Add(2)
	r.Histogram("lat").Observe(time.Second)
	r.StartRemote(NewTrace(true), "op").End()
	cur := r.Snapshot()
	d := Delta(nil, cur)
	if d.Counters["ops"] != 2 || d.Histograms["lat"].Count != 1 || len(d.TraceSpans) != 1 {
		t.Fatalf("delta vs nil = %+v", d)
	}
}
