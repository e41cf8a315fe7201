package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestNewTraceDistinctAndValid(t *testing.T) {
	a, b := NewTrace(true), NewTrace(false)
	if !a.Valid() || !b.Valid() {
		t.Fatalf("minted trace invalid: %+v %+v", a, b)
	}
	if a.TraceID() == b.TraceID() {
		t.Fatalf("two minted traces share ID %s", a.TraceID())
	}
	if len(a.TraceID()) != 32 {
		t.Fatalf("trace ID %q is not 32 hex digits", a.TraceID())
	}
	if !a.Sampled || b.Sampled {
		t.Fatalf("sampled flags lost: %+v %+v", a, b)
	}
}

func TestStartCtxParentLinks(t *testing.T) {
	r := New()
	tc := NewTrace(true)
	ctx := ContextWithTrace(context.Background(), tc)

	root, ctx := r.StartCtx(ctx, "root")
	if !root.Sampled() {
		t.Fatal("root span did not join the sampled trace")
	}
	child, _ := r.StartCtx(ctx, "child")
	child.End()
	root.End()

	spans := r.Snapshot().TraceSpans
	if len(spans) != 2 {
		t.Fatalf("%d trace spans, want 2", len(spans))
	}
	byName := map[string]TraceSpan{}
	for _, ts := range spans {
		byName[ts.Name] = ts
		if ts.TraceID() != tc.TraceID() {
			t.Fatalf("span %s trace %s, want %s", ts.Name, ts.TraceID(), tc.TraceID())
		}
	}
	if byName["root"].ParentID != tc.Span {
		t.Fatalf("root parent %x, want the context's span %x", byName["root"].ParentID, tc.Span)
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatalf("child parent %x, want root span %x", byName["child"].ParentID, byName["root"].SpanID)
	}
}

func TestStartCtxUnsampledIsPlainStart(t *testing.T) {
	r := New()
	sp, ctx := r.StartCtx(context.Background(), "op")
	if sp.Sampled() {
		t.Fatal("span sampled without a trace in ctx")
	}
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("ctx gained a trace from an untraced StartCtx")
	}
	sp.End()
	if n := len(r.Snapshot().TraceSpans); n != 0 {
		t.Fatalf("%d trace spans recorded untraced, want 0", n)
	}
	// An unsampled trace context must not sample either.
	ctx = ContextWithTrace(context.Background(), NewTrace(false))
	sp, _ = r.StartCtx(ctx, "op")
	if sp.Sampled() {
		t.Fatal("span joined an unsampled trace")
	}
}

func TestStartRemoteJoins(t *testing.T) {
	r := New()
	tc := NewTrace(true)
	sp := r.StartRemote(tc, "serve.request")
	child := sp.TraceContext()
	if !child.Valid() || child.Hi != tc.Hi || child.Lo != tc.Lo || child.Span == tc.Span {
		t.Fatalf("remote span context %+v does not extend %+v", child, tc)
	}
	sp.End()
	spans := r.Snapshot().TraceSpans
	if len(spans) != 1 || spans[0].ParentID != tc.Span {
		t.Fatalf("remote span not linked to sender: %+v", spans)
	}
}

func TestSpanAttrs(t *testing.T) {
	r := New()
	sp := r.StartRemote(NewTrace(true), "op")
	sp.SetAttr("count", 7)
	sp.SetAttrStr("kind", "CSF")
	sp.End()
	spans := r.Snapshot().TraceSpans
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	got := map[string]Attr{}
	for _, a := range spans[0].Attrs {
		got[a.Key] = a
	}
	if got["count"].Int != 7 || got["kind"].Str != "CSF" {
		t.Fatalf("attrs = %+v", spans[0].Attrs)
	}
	// Untraced spans must drop attributes silently.
	sp2 := r.Start("plain")
	sp2.SetAttr("count", 1)
	sp2.End()
	if n := len(r.Snapshot().TraceSpans); n != 1 {
		t.Fatalf("untraced span leaked into the trace ring: %d spans", n)
	}
}

func TestTraceSpanRingOverwritesOldest(t *testing.T) {
	r := New()
	tc := NewTrace(true)
	n := spanRingCap + 10
	for i := 0; i < n; i++ {
		r.StartRemote(tc, Name("op", "i", itoa(i))).End()
	}
	spans := r.Snapshot().TraceSpans
	if len(spans) != spanRingCap {
		t.Fatalf("%d spans, want ring cap %d", len(spans), spanRingCap)
	}
	// Oldest-first export: the first surviving span is the one written
	// right after the overwritten prefix.
	if want := Name("op", "i", itoa(10)); spans[0].Name != want {
		t.Fatalf("oldest surviving span %q, want %q", spans[0].Name, want)
	}
	if want := Name("op", "i", itoa(n-1)); spans[len(spans)-1].Name != want {
		t.Fatalf("newest span %q, want %q", spans[len(spans)-1].Name, want)
	}
}

func itoa(i int) string {
	return string(appendInt(nil, i))
}

func appendInt(b []byte, i int) []byte {
	if i >= 10 {
		b = appendInt(b, i/10)
	}
	return append(b, byte('0'+i%10))
}

func TestSnapshotAbsorbAndDeltaTraceSpans(t *testing.T) {
	shard := New()
	shard.SetProc("shard:a")
	tc := NewTrace(true)
	shard.StartRemote(tc, "op1").End()
	snap1 := shard.Snapshot()

	router := New()
	router.Absorb(snap1)
	got := router.Snapshot().TraceSpans
	if len(got) != 1 || got[0].Proc != "shard:a" || got[0].TraceID() != tc.TraceID() {
		t.Fatalf("absorbed spans %+v", got)
	}

	// Delta between consecutive shard snapshots carries only the new
	// spans, keyed by span ID — absorbing it twice-removed stays exact.
	shard.StartRemote(tc, "op2").End()
	snap2 := shard.Snapshot()
	d := Delta(snap1, snap2)
	if len(d.TraceSpans) != 1 || d.TraceSpans[0].Name != "op2" {
		t.Fatalf("delta spans %+v, want just op2", d.TraceSpans)
	}
	router.Absorb(d)
	if n := len(router.Snapshot().TraceSpans); n != 2 {
		t.Fatalf("router holds %d spans after delta absorb, want 2", n)
	}
}

func TestSnapshotTraceSpansSurviveJSON(t *testing.T) {
	r := New()
	r.SetProc("client")
	sp := r.StartRemote(NewTrace(true), "op")
	sp.SetAttr("n", 3)
	sp.End()
	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.TraceSpans) != 1 || snap.TraceSpans[0].Proc != "client" {
		t.Fatalf("decoded spans %+v", snap.TraceSpans)
	}
}

func TestSampleBounds(t *testing.T) {
	if Sample(0) || Sample(-1) {
		t.Fatal("rate <= 0 sampled")
	}
	if !Sample(1) || !Sample(2) {
		t.Fatal("rate >= 1 did not sample")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if Sample(0.5) {
			hits++
		}
	}
	if hits < 3000 || hits > 7000 {
		t.Fatalf("Sample(0.5) hit %d/10000", hits)
	}
}

func TestSlowLogThresholdAndRing(t *testing.T) {
	r := New()
	sl := r.SlowLog()
	if sl.Triggered(time.Hour) {
		t.Fatal("slowlog triggered while disabled")
	}
	sl.SetThreshold(10 * time.Millisecond)
	if sl.Triggered(9 * time.Millisecond) {
		t.Fatal("sub-threshold duration triggered")
	}
	if !sl.Triggered(10 * time.Millisecond) {
		t.Fatal("at-threshold duration did not trigger")
	}
	sl.SetThreshold(0) // log everything
	if !sl.Triggered(0) {
		t.Fatal("zero threshold did not log all")
	}
	sl.Record(SlowEntry{Op: "store.query", Kind: "CSF", DurNs: 123,
		Cost: map[string]int64{"fragments": 2}, TraceID: "00ab"})
	var out bytes.Buffer
	if err := sl.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	var e SlowEntry
	if err := json.Unmarshal(out.Bytes(), &e); err != nil {
		t.Fatalf("slowlog line does not parse: %v (%q)", err, out.String())
	}
	if e.Op != "store.query" || e.Cost["fragments"] != 2 || e.TraceID != "00ab" {
		t.Fatalf("entry round trip: %+v", e)
	}
	if n := len(sl.Entries()); n != 1 {
		t.Fatalf("%d entries, want 1", n)
	}
}

func TestSlowLogSink(t *testing.T) {
	r := New()
	sl := r.SlowLog()
	sl.SetThreshold(0)
	var sink bytes.Buffer
	sl.SetSink(&sink)
	sl.Record(SlowEntry{Op: "store.kernel", DurNs: 5})
	line := sink.String()
	var e SlowEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("sink line does not parse: %v (%q)", err, line)
	}
	if e.Op != "store.kernel" {
		t.Fatalf("sink entry %+v", e)
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var r *Registry
	sl := r.SlowLog()
	if sl.Triggered(time.Hour) {
		t.Fatal("nil registry slowlog triggered")
	}
	sl.Record(SlowEntry{}) // must not panic
	if err := sl.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
