package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sparseart/internal/obs"
	"sparseart/internal/obs/export"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestEndpoints(t *testing.T) {
	reg := obs.New()
	reg.Counter("serve.ops").Add(5)
	reg.Histogram("serve.lat").Observe(time.Millisecond)
	h := New(reg).Handler()

	resp, body := get(t, h, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != export.ContentTypePrometheus {
		t.Fatalf("/metrics content type %q", ct)
	}
	if fams, err := export.ParsePrometheus(body); err != nil {
		t.Fatalf("/metrics not parseable: %v\n%s", err, body)
	} else if len(fams) == 0 {
		t.Fatal("/metrics empty")
	}

	resp, body = get(t, h, "/trace")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("traceEvents")) {
		t.Fatalf("/trace: %s %q", resp.Status, body)
	}

	resp, body = get(t, h, "/snapshot")
	if resp.StatusCode != 200 {
		t.Fatalf("/snapshot: %s", resp.Status)
	}
	snap, err := obs.DecodeSnapshot(body)
	if err != nil {
		t.Fatalf("/snapshot not decodable: %v", err)
	}
	if snap.Counters["serve.ops"] != 5 {
		t.Fatalf("decoded counter = %d, want 5", snap.Counters["serve.ops"])
	}

	resp, _ = get(t, h, "/debug/pprof/cmdline")
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/cmdline: %s", resp.Status)
	}
}

// TestScrapeHammer scrapes /metrics and /snapshot while writers
// pound the registry, under -race in CI. Every exposition must parse
// and every histogram must be internally coherent (the parser enforces
// _count == +Inf bucket and non-decreasing cumulative buckets), which
// is exactly the torn-snapshot failure mode: a scrape landing between
// a histogram's bucket increment and count increment.
func TestScrapeHammer(t *testing.T) {
	reg := obs.New()
	h := New(reg).Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer.ops", "worker", fmt.Sprint(w))
			hist := reg.Histogram("hammer.lat")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				hist.Observe(time.Duration(i%4096) * time.Nanosecond)
				if i%64 == 0 {
					sp := reg.Start("hammer.span")
					sp.End()
				}
			}
		}(w)
	}
	deadline := time.After(300 * time.Millisecond)
	var scrapes int
loop:
	for {
		select {
		case <-deadline:
			break loop
		default:
		}
		_, body := get(t, h, "/metrics")
		if _, err := export.ParsePrometheus(body); err != nil {
			close(stop)
			t.Fatalf("scrape %d incoherent: %v\n%s", scrapes, err, body)
		}
		_, body = get(t, h, "/snapshot")
		snap, err := obs.DecodeSnapshot(body)
		if err != nil {
			close(stop)
			t.Fatalf("snapshot scrape %d: %v", scrapes, err)
		}
		for name, hs := range snap.Histograms {
			var total int64
			for _, b := range hs.Buckets {
				total += b.Count
			}
			if total != hs.Count {
				close(stop)
				t.Fatalf("scrape %d: %q torn: buckets sum %d, count %d", scrapes, name, total, hs.Count)
			}
		}
		scrapes++
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrapes completed")
	}
}
