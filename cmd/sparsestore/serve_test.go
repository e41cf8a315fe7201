package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sparseart/internal/obs"
	"sparseart/internal/obs/export"
)

// startServe runs the serve subcommand against dir in a goroutine and
// returns the bound address once the server is up. The server is torn
// down by SIGINT at cleanup (runServe's own shutdown path, so the test
// covers it too).
func startServe(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- runServe(append([]string{
			"-dir", dir, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		}, extra...))
	}()
	t.Cleanup(func() {
		syscall.Kill(os.Getpid(), syscall.SIGINT)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("serve did not shut down on SIGINT")
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data))
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

func TestServeEndToEnd(t *testing.T) {
	ds := writeDataset(t)
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := capture(t, func() error {
		return runImport([]string{"-dir", dir, "-in", ds, "-kind", "GCSR++"})
	}); err != nil {
		t.Fatal(err)
	}

	addr := startServe(t, dir, "-warm", "1", "-readall")

	// /metrics parses as strict Prometheus exposition and shows the
	// warming and the -readall traffic.
	text := fetch(t, "http://"+addr+"/metrics")
	if _, err := export.ParsePrometheus(text); err != nil {
		t.Fatalf("/metrics not well-formed: %v\n%s", err, text)
	}
	for _, want := range []string{"fragcache_warmed_total", "store_read_count_total"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %s:\n%s", want, text)
		}
	}

	// /snapshot decodes as the Snapshot JSON with the same counters.
	snap, err := obs.DecodeSnapshot(fetch(t, "http://"+addr+"/snapshot"))
	if err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	var warmed int64
	for name, v := range snap.Counters {
		// Exact family: "fragcache.warmed{kind=K}", not warmed_bytes.
		if strings.HasPrefix(name, "fragcache.warmed{") {
			warmed += v
		}
	}
	if warmed != 1 {
		t.Errorf("fragcache.warmed = %d, want 1", warmed)
	}

	// /trace is a Chrome trace with the read spans from -readall.
	trace := fetch(t, "http://"+addr+"/trace")
	if !strings.Contains(string(trace), `"traceEvents"`) || !strings.Contains(string(trace), "store.read") {
		t.Errorf("/trace missing read spans:\n%.400s", trace)
	}
}

func TestServeRequiresDir(t *testing.T) {
	if err := runServe(nil); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("runServe() = %v, want -dir error", err)
	}
}
