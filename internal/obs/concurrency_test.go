package obs

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives counters, gauges, histograms, and spans —
// sampled and unsampled — from GOMAXPROCS goroutines simultaneously
// (run under -race in CI) and checks that the snapshot totals equal the
// sum of the per-goroutine contributions — the obs hot path must be
// race-clean by construction.
func TestConcurrentHammer(t *testing.T) {
	r := New()
	tc := NewTrace(true)
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000

	counts := make([]int64, workers)
	durs := make([]time.Duration, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hammer.ops").Inc()
				r.Counter("hammer.bytes", "worker", string(rune('a'+w%8))).Add(3)
				counts[w] += 1
				r.Gauge("hammer.last").Set(int64(i))
				d := time.Duration(i%7+1) * time.Microsecond
				r.Histogram("hammer.lat").Observe(d)
				durs[w] += d
				if i%64 == 0 {
					var parent TraceContext // unsampled: a plain root
					if i%128 == 0 {
						parent = tc
					}
					sp := r.StartRemote(parent, "hammer.op")
					sp.Child("hammer.op.phase").End()
					sp.End()
				}
				if i%512 == 0 {
					// Concurrent snapshots must be safe too.
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	var wantOps int64
	for _, c := range counts {
		wantOps += c
	}
	if got := snap.Counters["hammer.ops"]; got != wantOps {
		t.Fatalf("hammer.ops = %d, want %d", got, wantOps)
	}
	var wantBytes int64
	for k, v := range snap.Counters {
		if len(k) > len("hammer.bytes") && k[:len("hammer.bytes")] == "hammer.bytes" {
			wantBytes += v
		}
	}
	if wantBytes != wantOps*3 {
		t.Fatalf("labeled bytes sum = %d, want %d", wantBytes, wantOps*3)
	}
	var wantDur time.Duration
	for _, d := range durs {
		wantDur += d
	}
	h := snap.Histograms["hammer.lat"]
	if h.Count != wantOps {
		t.Fatalf("hist count = %d, want %d", h.Count, wantOps)
	}
	if h.Sum() != wantDur {
		t.Fatalf("hist sum = %v, want %v", h.Sum(), wantDur)
	}
	if h.MinNs != int64(time.Microsecond) || h.MaxNs != int64(7*time.Microsecond) {
		t.Fatalf("min/max = %d/%d", h.MinNs, h.MaxNs)
	}
	var bucketTotal int64
	for _, b := range h.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != wantOps {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, wantOps)
	}
	if snap.InFlight != 0 {
		t.Fatalf("in-flight spans = %d after all ended", snap.InFlight)
	}
	// Every span feeds its histogram; only the sampled half (each a
	// root and its child) reaches the trace ring.
	if got, want := snap.Histograms["hammer.op.phase"].Count, int64(workers)*((perWorker+63)/64); got != want {
		t.Fatalf("hammer.op.phase count = %d, want %d", got, want)
	}
	wantSampled := min(int64(workers)*((perWorker+127)/128)*2, spanRingCap)
	if got := int64(len(snap.TraceSpans)); got != wantSampled {
		t.Fatalf("trace spans = %d, want %d", got, wantSampled)
	}
}
