package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

// BucketCount is one non-empty histogram bucket: Count observations at
// durations >= LowNs (and below the next bucket's LowNs).
type BucketCount struct {
	LowNs int64 `json:"low_ns"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	SumNs   int64         `json:"sum_ns"`
	MinNs   int64         `json:"min_ns"`
	MaxNs   int64         `json:"max_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Sum returns the histogram's total as a duration.
func (h HistogramSnapshot) Sum() time.Duration { return time.Duration(h.SumNs) }

// Mean returns the histogram's mean as a duration, zero when empty.
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNs / h.Count)
}

// Snapshot is a point-in-time export of a registry. Maps keep the
// canonical metric names produced by Name, so JSON key order (sorted by
// encoding/json) is deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// TraceSpans are the sampled spans from the registry's bounded
	// ring, oldest first (see trace.go).
	TraceSpans []TraceSpan `json:"trace_spans,omitempty"`
	// InFlight is the number of spans open at snapshot time; a leak
	// detector for tests.
	InFlight int `json:"in_flight,omitempty"`
}

// Snapshot exports the registry's current state. On a nil registry it
// returns an empty (but usable) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.histograms.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = v.(*Histogram).snapshot()
		return true
	})
	s.TraceSpans = r.traceSpans()
	s.InFlight = r.InFlight()
	return s
}

// Absorb merges an exported snapshot into the registry: counters add,
// gauges take the snapshot's value, histograms merge bucket-wise, and
// trace spans enter the ring. Harnesses use it to fold short-lived
// registries into a long-lived one (e.g. the benchmark's per-cell
// registries into the process-wide -metrics registry). No-op on a nil
// registry.
func (r *Registry) Absorb(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		r.Histogram(name).absorb(hs)
	}
	for _, ts := range s.TraceSpans {
		r.recordTraceSpan(ts)
	}
}

// JSON renders the snapshot as indented JSON. The output is stable: the
// same snapshot always serializes to the same bytes.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeSnapshot parses a snapshot previously exported with JSON.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	// Canonicalize empty collections to nil. encoding/json matches
	// field names case-insensitively, so e.g. `"histogrAms": {}` decodes
	// into Histograms as a non-nil empty map — but `omitempty` drops it
	// on export, and the re-decoded value would be nil. Normalizing here
	// keeps decode(export) a fixed point.
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	if len(s.Histograms) == 0 {
		s.Histograms = nil
	}
	for k, h := range s.Histograms {
		if h.Buckets != nil && len(h.Buckets) == 0 {
			h.Buckets = nil
			s.Histograms[k] = h
		}
	}
	if len(s.TraceSpans) == 0 {
		s.TraceSpans = nil
	}
	for i := range s.TraceSpans {
		if len(s.TraceSpans[i].Attrs) == 0 {
			s.TraceSpans[i].Attrs = nil
		}
	}
	return &s, nil
}

// sortedKeys returns the sorted keys of a map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the snapshot as aligned human-readable text:
// counters, gauges, then histograms with count / mean / min / max /
// total.
func (s *Snapshot) WriteText(w io.Writer) error {
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-48s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-48s %d\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(w, "  %-48s n=%-8d mean=%-12v min=%-12v max=%-12v total=%v\n",
				k, h.Count, h.Mean(), time.Duration(h.MinNs), time.Duration(h.MaxNs), h.Sum())
		}
	}
	if s.InFlight > 0 {
		fmt.Fprintf(w, "in-flight spans: %d\n", s.InFlight)
	}
	return nil
}

// WriteTimeline renders the trace spans as a timeline: one line per
// span in start order (a parent before a child that starts in the same
// nanosecond), indented by nesting depth, with its offset from the
// earliest span and its duration. limit > 0 caps the number of lines
// (earliest first).
func (s *Snapshot) WriteTimeline(w io.Writer, limit int) error {
	spans := slices.Clone(s.TraceSpans)
	slices.SortStableFunc(spans, func(a, b TraceSpan) int {
		return cmp.Or(cmp.Compare(a.StartUnixNs, b.StartUnixNs), cmp.Compare(a.Depth, b.Depth))
	})
	shown := spans
	if limit > 0 && len(shown) > limit {
		shown = shown[:limit]
	}
	for _, ts := range shown {
		depth := min(max(ts.Depth, 0), 32) // decoded snapshots may carry anything
		fmt.Fprintf(w, "%12v  %s%-*s %v\n",
			time.Duration(ts.StartUnixNs-spans[0].StartUnixNs), strings.Repeat("  ", depth),
			48-2*depth, ts.Name, time.Duration(ts.DurNs))
	}
	if more := len(spans) - len(shown); more > 0 {
		fmt.Fprintf(w, "... %d more span(s)\n", more)
	}
	return nil
}
