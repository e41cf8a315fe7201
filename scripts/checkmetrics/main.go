// Command checkmetrics validates a live sparseart telemetry endpoint
// (sparsestore serve, sparserouter, or any internal/obs/serve handler)
// from the outside: it scrapes /metrics through the strict Prometheus
// parser and /snapshot through obs.DecodeSnapshot, then cross-checks
// the two views on every expected counter family — present in both,
// and, since counters only grow and /snapshot is read second, never
// lower in the snapshot than in the exposition. CI runs it against a
// freshly imported store and against a router fronting three shards;
// exit status 0 means the endpoint serves well-formed, mutually
// consistent telemetry.
//
// Usage:
//
//	checkmetrics -addr 127.0.0.1:9100 -expect fragcache.warmed -expect store.read.count
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"sparseart/internal/obs"
	"sparseart/internal/obs/export"
)

type expectList []string

func (e *expectList) String() string     { return strings.Join(*e, ",") }
func (e *expectList) Set(v string) error { *e = append(*e, v); return nil }

func main() {
	addr := flag.String("addr", "", "host:port of the telemetry endpoint")
	var expect expectList
	flag.Var(&expect, "expect", "counter family (obs dotted name) that must appear in both /metrics and /snapshot; repeatable")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "checkmetrics: -addr is required")
		os.Exit(2)
	}
	if err := check("http://"+*addr, expect); err != nil {
		fmt.Fprintln(os.Stderr, "checkmetrics:", err)
		os.Exit(1)
	}
	fmt.Printf("checkmetrics: ok (%d expected families verified)\n", len(expect))
}

func check(base string, expect []string) error {
	// /metrics: strict exposition-format parse (TYPE lines, label
	// quoting, histogram _bucket/_sum/_count coherence).
	promBody, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	fams, err := export.ParsePrometheus(promBody)
	if err != nil {
		return fmt.Errorf("/metrics is not well-formed: %w", err)
	}
	promTotals := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			promTotals[f.Name] += s.Value
		}
	}

	// /snapshot: the lossless Snapshot JSON.
	snapBody, err := get(base + "/snapshot")
	if err != nil {
		return err
	}
	snap, err := obs.DecodeSnapshot(snapBody)
	if err != nil {
		return fmt.Errorf("/snapshot does not decode: %w", err)
	}
	snapTotals := map[string]float64{}
	for name, v := range snap.Counters {
		fam, _ := obs.ParseName(name)
		snapTotals[fam] += float64(v)
	}

	for _, want := range expect {
		prom := strings.ReplaceAll(want, ".", "_") + "_total"
		p, inProm := promTotals[prom]
		s, inSnap := snapTotals[want]
		switch {
		case !inProm:
			return fmt.Errorf("/metrics missing counter family %q (from %q)", prom, want)
		case !inSnap:
			return fmt.Errorf("/snapshot missing counter family %q", want)
		case s < p:
			return fmt.Errorf("counter family %q went backwards: %v on /metrics, then %v on /snapshot", want, p, s)
		}
	}
	return nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
