// Package obs is the storage engine's observability layer: atomic
// counters and gauges, fixed-bucket latency histograms, a span API for
// phase tracing, and a process-wide Registry with labeled metric
// families that exports snapshots as human-readable text or JSON.
//
// The paper's evaluation lives and dies by per-phase time breakdowns
// (Tables III–V: Build / Reorg / Write / Others), but the hand-rolled
// report structs in internal/store only exist inside the benchmark
// harness. This package makes the same phases — and the counters behind
// them — observable whenever the engine runs, including under real
// traffic through cmd/sparsestore.
//
// Design rules:
//
//   - The hot path is lock-free: counters, gauges, and histogram
//     observations are single atomic operations; metric handles are
//     resolved through a sync.Map and should be looked up once per
//     batch, not per point.
//   - Everything is nil-safe. A nil *Registry (the default when
//     observation is disabled) returns nil metric handles, and every
//     method on a nil handle is a no-op, so instrumentation sites cost
//     one predictable branch when the layer is off.
//   - No dependencies beyond the standard library.
//
// Metric names are dot-separated paths ("store.write.bytes"); labels
// are appended in canonical '{k=v,...}' form by Name. Span names reuse
// the metric path convention ("store.write.build"); ending a span feeds
// its duration into the histogram of the same name and, when the span
// belongs to a sampled trace, records it into the registry's trace ring.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// SampledCounter amortizes a shared counter for per-point hot paths
// (one per event is measurable at paper scale — hundreds of millions of
// Lookups): it counts locally and flushes Period events at a time to the
// underlying counter, so the shared cache line is touched once per
// Period instead of once per event. The underlying counter advances in
// steps of Period but converges on the true count; the remainder below
// one period is the only imprecision. Each reader should own its own
// SampledCounter (sharing one re-centralizes the contention).
type SampledCounter struct {
	c    *Counter
	mask int64 // Period - 1; Period is a power of two
	n    atomic.Int64
}

// DefaultSamplePeriod is the flush interval used by NewSampled when the
// caller has no reason to pick another: small enough that short scans
// still register, large enough to keep the shared atomic off the
// per-point path.
const DefaultSamplePeriod = 64

// NewSampled wraps c with a flush every period events; period is rounded
// up to a power of two, and values < 2 degrade to a plain pass-through
// of period 1. A SampledCounter over a nil counter is a no-op, as is a
// nil *SampledCounter.
func NewSampled(c *Counter, period int64) *SampledCounter {
	p := int64(1)
	for p < period {
		p <<= 1
	}
	return &SampledCounter{c: c, mask: p - 1}
}

// Inc counts one event, flushing a whole period to the underlying
// counter every Period-th call.
func (s *SampledCounter) Inc() {
	if s == nil || s.c == nil {
		return
	}
	if s.n.Add(1)&s.mask == 0 {
		s.c.Add(s.mask + 1)
	}
}

// Period returns the flush interval.
func (s *SampledCounter) Period() int64 {
	if s == nil {
		return 0
	}
	return s.mask + 1
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value; zero on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds the process's metric families. The zero value is not
// usable; call New. A nil *Registry is the disabled state: every method
// is safe and returns nil handles or empty snapshots.
type Registry struct {
	counters   sync.Map // string -> *Counter
	gauges     sync.Map // string -> *Gauge
	histograms sync.Map // string -> *Histogram

	inflight atomic.Int64 // spans started but not yet ended

	// Sampled request spans (distributed tracing, see trace.go): a
	// bounded ring keeping the newest spans, plus the process label
	// stamped onto each recorded span.
	spanRingMu   sync.Mutex
	spanRing     []TraceSpan
	spanRingHead int // next overwrite index once the ring is full
	proc         atomic.Pointer[string]

	// slowlog is the registry's slow-query log, created on first use.
	slowlog atomic.Pointer[SlowLog]
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{}
}

// Counter returns the counter for the given family and label pairs,
// creating it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	name := Name(family, labels...)
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge returns the gauge for the given family and label pairs,
// creating it on first use. Returns nil on a nil registry.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	name := Name(family, labels...)
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the histogram for the given family and label pairs,
// creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(family string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	name := Name(family, labels...)
	if v, ok := r.histograms.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.histograms.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// InFlight returns the number of spans started but not yet ended — a
// nonzero value after a store operation returns is a span leak.
func (r *Registry) InFlight() int {
	if r == nil {
		return 0
	}
	return int(r.inflight.Load())
}

// global is the process-wide registry. It starts nil (observation
// disabled) so library hot paths pay only an atomic pointer load.
var global atomic.Pointer[Registry]

// Global returns the process-wide registry, or nil when observation is
// disabled.
func Global() *Registry { return global.Load() }

// SetGlobal installs r as the process-wide registry; nil disables
// observation. It returns the previous registry.
func SetGlobal(r *Registry) *Registry { return global.Swap(r) }

// Enable installs a fresh global registry and returns it — the one-call
// setup for CLIs.
func Enable() *Registry {
	r := New()
	SetGlobal(r)
	return r
}
