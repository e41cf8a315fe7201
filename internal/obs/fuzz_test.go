package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzSnapshotRoundTrip checks that snapshot JSON handling is total and
// stable: decoding arbitrary bytes never panics, and any input that
// decodes successfully re-exports to a fixed point (export → decode →
// re-export yields identical bytes and an equal value).
func FuzzSnapshotRoundTrip(f *testing.F) {
	// Seed with real exports of increasing richness.
	empty := New()
	seed, err := empty.Snapshot().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	rich := New()
	rich.Counter("store.write.count").Add(3)
	rich.Counter("core.build.count", "kind", "CSF").Inc()
	rich.Gauge("store.fragments").Set(11)
	rich.Histogram("store.write.build").Observe(1234567 * time.Nanosecond)
	sp := rich.Start("store.write")
	sp.Child("store.write.build").End()
	sp.End()
	seed, err = rich.Snapshot().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"counters":{"a":1},"in_flight":2}`))
	f.Add([]byte(`{"histograms":{"h":{"count":1,"sum_ns":5,"min_ns":5,"max_ns":5,"buckets":[{"low_ns":4,"count":1}]}}}`))
	// The retired timeline fields: refused as unknown.
	f.Add([]byte(`{"spans":[{"name":"x","depth":1,"start_ns":0,"dur_ns":7}],"span_drops":3}`))
	f.Add([]byte(`{"trace_spans":[{"trace_hi":1,"trace_lo":2,"span_id":3,"name":"x","depth":-1,"start_unix_ns":5,"dur_ns":7}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		out, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted snapshot failed to export: %v", err)
		}
		back, err := DecodeSnapshot(out)
		if err != nil {
			t.Fatalf("our own export failed to decode: %v", err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("decode(export) changed the value:\n%+v\n%+v", s, back)
		}
		again, err := back.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("re-export not stable:\n%s\n%s", out, again)
		}
		// Text renderers must be total over anything that decodes.
		var sink bytes.Buffer
		if err := s.WriteText(&sink); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTimeline(&sink, 100); err != nil {
			t.Fatal(err)
		}
	})
}
