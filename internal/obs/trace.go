package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Request-scoped distributed tracing. A TraceContext names one request
// fleet-wide: a 128-bit trace ID minted by whoever saw the request
// first, the span ID of the caller's current span (the parent link for
// whatever the callee opens), and a sampling flag. The context travels
// through context.Context in-process (ContextWithTrace / TraceFrom) and
// through the wire frame header across processes (internal/wire).
//
// Sampled spans are recorded as TraceSpan records — absolute start
// times, explicit trace/span/parent IDs, typed attributes, and the
// recording process's label — into a bounded per-registry ring that
// snapshots export and Absorb merges, so the router aggregates shard
// span rings exactly the way it aggregates counters, and one Chrome
// trace can stitch a request across client, router, and shards.

// TraceContext identifies one request across process boundaries.
// The zero value means "no trace".
type TraceContext struct {
	Hi, Lo uint64 // 128-bit trace ID
	// Span is the caller's current span ID: the parent of the next
	// span opened under this context. Zero at the trace root.
	Span uint64
	// Sampled gates recording: only sampled traces produce TraceSpan
	// records (metrics and histograms are unaffected either way).
	Sampled bool
}

// Valid reports whether tc names a trace.
func (tc TraceContext) Valid() bool { return tc.Hi|tc.Lo != 0 }

// TraceID renders the 128-bit trace ID as 32 lowercase hex digits.
func (tc TraceContext) TraceID() string {
	return fmt.Sprintf("%016x%016x", tc.Hi, tc.Lo)
}

// NewTrace mints a fresh trace context with a random 128-bit trace ID
// and no parent span.
func NewTrace(sampled bool) TraceContext {
	return TraceContext{Hi: randID(), Lo: randID(), Sampled: sampled}
}

// idState drives a splitmix64 sequence seeded once per process from
// crypto/rand, so concurrently minted IDs are distinct and two
// processes do not collide.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// randID returns a nonzero pseudorandom 64-bit ID (splitmix64 over an
// atomic counter: lock-free and race-safe).
func randID() uint64 {
	for {
		x := idState.Add(0x9E3779B97F4A7C15)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// Sample reports a pseudorandom decision that is true with probability
// rate (values outside [0,1] clamp). It rides the trace-ID generator,
// so it is lock-free and cheap enough for a per-request gate.
func Sample(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(randID()>>11)/(1<<53) < rate
}

type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying tc.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the trace context from ctx; ok is false when ctx
// carries none (or a zero one).
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, tc.Valid()
}

// Attr is one typed span attribute: Key plus either a string or an
// integer value.
type Attr struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Int int64  `json:"int,omitempty"`
}

// TraceSpan is one completed sampled span — the only span record a
// registry keeps. It carries an absolute start time and explicit
// identity, so spans recorded by different processes stitch into one
// tree.
type TraceSpan struct {
	TraceHi  uint64 `json:"trace_hi"`
	TraceLo  uint64 `json:"trace_lo"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Proc labels the recording process ("client", "router",
	// "shard:dir", ...) so the Chrome exporter can lay each process on
	// its own track.
	Proc        string `json:"proc,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
	Attrs       []Attr `json:"attrs,omitempty"`
}

// TraceID renders the span's 128-bit trace ID as 32 hex digits.
func (ts TraceSpan) TraceID() string {
	return fmt.Sprintf("%016x%016x", ts.TraceHi, ts.TraceLo)
}

// spanRingCap bounds the per-registry trace-span ring. The ring
// keeps the newest spans: live tracing cares about recent requests.
const spanRingCap = 4096

// SetProc labels every trace span this registry records from now on
// with the given process name. No-op on a nil registry.
func (r *Registry) SetProc(name string) {
	if r != nil {
		r.proc.Store(&name)
	}
}

// Proc returns the registry's process label, "" when unset.
func (r *Registry) Proc() string {
	if r == nil {
		return ""
	}
	if p := r.proc.Load(); p != nil {
		return *p
	}
	return ""
}

// StartCtx opens a span that joins the trace carried by ctx: the new
// span's parent is the context's current span, and the returned context
// carries the new span as current — pass it down so nested StartCtx
// calls and outgoing RPCs link correctly. When ctx carries no sampled
// trace this is exactly Start (and ctx is returned unchanged), so
// instrumentation sites pay one context lookup when tracing is off.
func (r *Registry) StartCtx(ctx context.Context, name string) (*Span, context.Context) {
	if r == nil {
		return nil, ctx
	}
	tc, ok := TraceFrom(ctx)
	if !ok || !tc.Sampled {
		return r.Start(name), ctx
	}
	sp := r.Start(name)
	sp.joinTrace(tc)
	return sp, ContextWithTrace(ctx, sp.TraceContext())
}

// StartRemote opens a root span joining a trace context received from
// a peer (the server side of an RPC). An invalid or unsampled tc
// degrades to a plain Start.
func (r *Registry) StartRemote(tc TraceContext, name string) *Span {
	if r == nil {
		return nil
	}
	sp := r.Start(name)
	if tc.Valid() && tc.Sampled {
		sp.joinTrace(tc)
	}
	return sp
}

// joinTrace binds the span into a sampled trace.
func (s *Span) joinTrace(tc TraceContext) {
	s.traceHi, s.traceLo = tc.Hi, tc.Lo
	s.parentID = tc.Span
	s.spanID = randID()
	s.sampled = true
}

// Sampled reports whether the span belongs to a sampled trace.
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// TraceContext returns the context to propagate to children and peers:
// the span's trace with the span itself as parent. Zero on a nil or
// untraced span.
func (s *Span) TraceContext() TraceContext {
	if s == nil || !s.sampled {
		return TraceContext{}
	}
	return TraceContext{Hi: s.traceHi, Lo: s.traceLo, Span: s.spanID, Sampled: true}
}

// SetAttr attaches an integer attribute. Attributes are only kept on
// sampled spans — on an untraced span this is a no-op, so hot paths can
// attach per-query cost attribution unconditionally.
func (s *Span) SetAttr(key string, v int64) {
	if s != nil && s.sampled {
		s.attrs = append(s.attrs, Attr{Key: key, Int: v})
	}
}

// SetAttrStr attaches a string attribute (sampled spans only).
func (s *Span) SetAttrStr(key, v string) {
	if s != nil && s.sampled {
		s.attrs = append(s.attrs, Attr{Key: key, Str: v})
	}
}

// recordTraceSpan inserts one completed sampled span into the bounded
// ring, overwriting the oldest entry when full.
func (r *Registry) recordTraceSpan(ts TraceSpan) {
	r.spanRingMu.Lock()
	defer r.spanRingMu.Unlock()
	if len(r.spanRing) < spanRingCap {
		r.spanRing = append(r.spanRing, ts)
		return
	}
	r.spanRing[r.spanRingHead] = ts
	r.spanRingHead = (r.spanRingHead + 1) % spanRingCap
}

// traceSpans returns the ring's contents oldest-first.
func (r *Registry) traceSpans() []TraceSpan {
	r.spanRingMu.Lock()
	defer r.spanRingMu.Unlock()
	if len(r.spanRing) == 0 {
		return nil
	}
	out := make([]TraceSpan, 0, len(r.spanRing))
	out = append(out, r.spanRing[r.spanRingHead:]...)
	out = append(out, r.spanRing[:r.spanRingHead]...)
	return out
}
