package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sparseart/internal/wire"
)

// fakeStream is an operation that takes a fixed time and fails on
// demand.
type fakeStream struct {
	took time.Duration
	err  error
	n    *atomic.Int64
}

func (f *fakeStream) next() {}
func (f *fakeStream) do(context.Context) error {
	f.n.Add(1)
	time.Sleep(f.took)
	return f.err
}
func (f *fakeStream) check(err error) bool { return err == nil }

func TestOpenLoopSendsOnScheduleWhateverTheReplies(t *testing.T) {
	// 200 req/s for 250 ms is 50 requests, although each takes 40 ms: a
	// closed loop would have sent 6.
	var calls atomic.Int64
	r := openLoop(func() opStream { return &fakeStream{took: 40 * time.Millisecond, n: &calls} }, 200, 250*time.Millisecond, nil, time.Now())
	if n := len(r.samples); n != 50 || calls.Load() != 50 {
		t.Fatalf("%d samples, %d calls, want 50", n, calls.Load())
	}
	for _, s := range r.samples {
		if s.gap < 0 {
			t.Fatalf("request sent %v before it was due", time.Duration(-s.gap))
		}
		// Latency counts from the due time: the service time plus however
		// late the scheduler was.
		if s.lat < int64(40*time.Millisecond)+s.gap {
			t.Fatalf("latency %v is less than service time plus lateness %v", time.Duration(s.lat), time.Duration(s.gap))
		}
		if !s.ok || s.refused {
			t.Fatalf("sample %+v", s)
		}
	}
	if r.inflightEnd < 1 || r.inflightEnd > 50 {
		t.Errorf("%d in flight at the end; the last 40 ms of requests cannot have been answered", r.inflightEnd)
	}
}

func TestOpenLoopChargesASchedulerStallToTheRequestsItDelayed(t *testing.T) {
	// The first stream takes 100 ms to make, which stalls the one
	// scheduler goroutine. At 100 req/s the requests due during the
	// stall go out late, and both their lateness and their latency (from
	// the due time) must show it: this is what a closed loop hides.
	var calls atomic.Int64
	first := true
	r := openLoop(func() opStream {
		if first {
			first = false
			time.Sleep(100 * time.Millisecond)
		}
		return &fakeStream{n: &calls}
	}, 100, 300*time.Millisecond, nil, time.Now())
	if len(r.samples) != 30 {
		t.Fatalf("%d samples, want 30: a stall must not drop requests", len(r.samples))
	}
	late := 0
	for _, s := range r.samples {
		if s.gap > int64(20*time.Millisecond) {
			late++
			if s.lat < s.gap {
				t.Fatalf("late request: latency %v below lateness %v", time.Duration(s.lat), time.Duration(s.gap))
			}
		}
	}
	// Requests due at 0, 10, ..., 70 ms are each at least 20 ms late.
	if late < 8 {
		t.Errorf("%d requests report the stall, want at least 8", late)
	}
	lat := latencies(r.samples)
	if p99 := percentile(lat, 99); p99 < 90 {
		t.Errorf("p99 %v ms does not show the 100 ms stall", p99)
	}
}

func TestRefusalsAreTellable(t *testing.T) {
	var calls atomic.Int64
	refuse := errors.Join(errors.New("serve"), wire.ErrOverloaded)
	r := openLoop(func() opStream { return &fakeStream{err: refuse, n: &calls} }, 1000, 20*time.Millisecond, nil, time.Now())
	for _, s := range r.samples {
		if s.ok || !s.refused {
			t.Fatalf("sample %+v: a refusal must be marked as one", s)
		}
	}
	if got := failures(r.samples, 0); got != len(r.samples) || got == 0 {
		t.Errorf("%d failures of %d", got, len(r.samples))
	}
	ok := []sample{{lat: int64(60 * time.Millisecond), ok: true}, {lat: int64(10 * time.Millisecond), ok: true}}
	if failures(ok, 50*time.Millisecond) != 1 || failures(ok, 0) != 0 {
		t.Error("a reply slower than the limit is a failure, and only then")
	}
}

func TestClosedLoopWaitsForEachReply(t *testing.T) {
	var calls atomic.Int64
	var stop atomic.Bool
	base := time.Now()
	time.AfterFunc(100*time.Millisecond, func() { stop.Store(true) })
	rec := newRecorder()
	rec.on.Store(true)
	samples := closedLoop(&fakeStream{took: 10 * time.Millisecond, n: &calls}, &stop, base, rec)
	if n := len(samples); n < 5 || n > 10 {
		t.Fatalf("%d ops of 10 ms in 100 ms", n)
	}
	spans := rec.take()
	if len(spans) != len(samples) {
		t.Fatalf("%d e2e spans for %d ops", len(spans), len(samples))
	}
	for i, s := range spans {
		if s.Level != levelE2E || s.Req != uint64(i+1) {
			t.Fatalf("span %d: %+v; each request needs its own number", i, s)
		}
	}
	if rec.req.Load() != 0 {
		t.Error("a request is still marked in flight after the loop ended")
	}
}
