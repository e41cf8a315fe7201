package obs

import "time"

// Span is one timed phase of an operation. Spans nest explicitly
// through Child, which keeps the API free of goroutine-local state:
//
//	sp := reg.Start("store.write")
//	b := sp.Child("build")
//	... build ...
//	b.End()
//	sp.End()
//
// End feeds the span's duration into the histogram of the same name, so
// every phase automatically has a latency distribution; a span that
// belongs to a sampled trace is also recorded, once, into the
// registry's trace ring. All methods are no-ops on a nil span, which is
// what a nil registry hands out.
type Span struct {
	reg   *Registry
	name  string
	depth int
	start time.Time
	extra time.Duration
	ended bool

	// Distributed-tracing identity, set by joinTrace when the span
	// belongs to a sampled trace (see trace.go). Untraced spans leave
	// these zero and only feed their histogram.
	traceHi, traceLo uint64
	spanID, parentID uint64
	sampled          bool
	attrs            []Attr
}

// Start opens a root span. Returns nil on a nil registry.
func (r *Registry) Start(name string) *Span {
	if r == nil {
		return nil
	}
	r.inflight.Add(1)
	return &Span{reg: r, name: name, start: time.Now()}
}

// Child opens a nested span. The parent's name is the prefix
// convention, not enforced: pass the full dotted name. Returns nil on a
// nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.reg.inflight.Add(1)
	c := &Span{reg: s.reg, name: name, depth: s.depth + 1, start: time.Now()}
	if s.sampled {
		c.joinTrace(s.TraceContext())
	}
	return c
}

// Add folds an externally modeled duration into the span, so that End
// reports wall time plus the addition. The storage engine uses it to
// attribute the simulated file system's modeled I/O cost to the phase
// that incurred it, matching the hand-rolled Table III breakdown.
func (s *Span) Add(d time.Duration) {
	if s != nil {
		s.extra += d
	}
}

// End closes the span, observes its duration (wall time since
// Start/Child plus any Add) in the same-named histogram, records a
// sampled span into the trace ring, and returns that duration. An
// unsampled span takes no lock. Ending a span twice records once; End
// on nil returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return 0
	}
	s.ended = true
	d := time.Since(s.start) + s.extra
	s.reg.inflight.Add(-1)
	s.reg.Histogram(s.name).Observe(d)
	if s.sampled {
		s.reg.recordTraceSpan(TraceSpan{
			TraceHi:     s.traceHi,
			TraceLo:     s.traceLo,
			SpanID:      s.spanID,
			ParentID:    s.parentID,
			Name:        s.name,
			Proc:        s.reg.Proc(),
			Depth:       s.depth,
			StartUnixNs: s.start.UnixNano(),
			DurNs:       int64(d),
			Attrs:       s.attrs,
		})
	}
	return d
}
