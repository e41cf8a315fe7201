// Command checktrace validates the distributed-tracing surface from
// the outside. Given a stitched Chrome trace file (the output of
// `sparsestore rpc -trace-out`), it verifies that every span carries a
// trace ID, that at least one trace ID carries spans from a client, a
// router, and at least one shard process, and that every parent link
// in every trace resolves to a span recorded under the same trace ID. Given -addr (a telemetry
// endpoint), it additionally fetches /debug/slowlog, requires every
// line to parse as a slow-query entry with an op and a duration (and
// at least one to carry a cost breakdown), and confirms
// /trace?trace_id= answers the stitched trace's ID with a filtered
// trace and rejects an unknown ID with 404. CI runs it right after the
// router smoke; exit status 0 means one request really was followed
// client → router → shard.
//
// Usage:
//
//	checktrace -file trace.json [-addr 127.0.0.1:9190]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"sparseart/internal/obs"
)

func main() {
	file := flag.String("file", "", "stitched Chrome trace file (sparsestore rpc -trace-out output)")
	addr := flag.String("addr", "", "optional host:port of a telemetry endpoint; checks /debug/slowlog and /trace?trace_id=")
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "checktrace: -file is required")
		os.Exit(2)
	}
	stitched, err := checkTraceFile(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checktrace:", err)
		os.Exit(1)
	}
	if *addr != "" {
		if err := checkEndpoint("http://"+*addr, stitched); err != nil {
			fmt.Fprintln(os.Stderr, "checktrace:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("checktrace: ok (trace %s spans client, router, and shard)\n", stitched)
}

// chromeEvent is the subset of a trace_event record the checks need.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// traceSpan is one distributed span reassembled from event args.
type traceSpan struct {
	name, proc, spanID, parentID string
}

// checkTraceFile parses the Chrome trace and returns the trace ID that
// spans all three process classes.
func checkTraceFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", fmt.Errorf("%s does not parse as a Chrome trace: %w", path, err)
	}

	// pid → process name from the metadata events the exporter emits.
	procs := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			if name, ok := e.Args["name"].(string); ok {
				procs[e.Pid] = name
			}
		}
	}

	// Group the spans (complete events, each carrying its trace_id) by
	// trace.
	traces := map[string][]traceSpan{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		tid, ok := e.Args["trace_id"].(string)
		if !ok {
			return "", fmt.Errorf("span %q (pid %d) has no trace_id", e.Name, e.Pid)
		}
		sid, _ := e.Args["span_id"].(string)
		pid, _ := e.Args["parent_id"].(string)
		if sid == "" {
			return "", fmt.Errorf("span %q in trace %s has no span_id", e.Name, tid)
		}
		traces[tid] = append(traces[tid], traceSpan{
			name: e.Name, proc: procs[e.Pid], spanID: sid, parentID: pid,
		})
	}
	if len(traces) == 0 {
		return "", fmt.Errorf("%s contains no distributed trace spans", path)
	}

	// Every parent link in every trace must resolve to a sibling span.
	for tid, spans := range traces {
		ids := map[string]bool{}
		for _, s := range spans {
			ids[s.spanID] = true
		}
		for _, s := range spans {
			if s.parentID != "" && !ids[s.parentID] {
				return "", fmt.Errorf("trace %s: span %q (proc %q) has dangling parent %s",
					tid, s.name, s.proc, s.parentID)
			}
		}
	}

	// At least one trace must have been followed across all three
	// process classes.
	for tid, spans := range traces {
		seen := map[string]bool{}
		for _, s := range spans {
			switch {
			case s.proc == "client":
				seen["client"] = true
			case s.proc == "router":
				seen["router"] = true
			case strings.HasPrefix(s.proc, "shard"):
				seen["shard"] = true
			}
		}
		if seen["client"] && seen["router"] && seen["shard"] {
			return tid, nil
		}
	}
	classes := map[string][]string{}
	for tid, spans := range traces {
		for _, s := range spans {
			classes[tid] = append(classes[tid], s.proc)
		}
		sort.Strings(classes[tid])
	}
	return "", fmt.Errorf("no trace ID spans client+router+shard; per-trace procs: %v", classes)
}

// checkEndpoint validates /debug/slowlog and /trace?trace_id= on a
// live telemetry server.
func checkEndpoint(base, stitched string) error {
	body, status, err := get(base + "/debug/slowlog")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/debug/slowlog answered %d", status)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return fmt.Errorf("/debug/slowlog is empty — was the server started with -slowlog 0?")
	}
	withCost := 0
	for i, line := range lines {
		var e obs.SlowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return fmt.Errorf("/debug/slowlog line %d does not parse: %w (%q)", i+1, err, line)
		}
		if e.Op == "" || e.DurNs < 0 {
			return fmt.Errorf("/debug/slowlog line %d is malformed: %+v", i+1, e)
		}
		if len(e.Cost) > 0 {
			withCost++
		}
	}
	if withCost == 0 {
		return fmt.Errorf("no slow-query entry carries a cost breakdown (%d entries)", len(lines))
	}

	// The stitched trace must be retrievable by ID ...
	body, status, err = get(base + "/trace?trace_id=" + stitched)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/trace?trace_id=%s answered %d", stitched, status)
	}
	if !strings.Contains(string(body), stitched) {
		return fmt.Errorf("/trace?trace_id=%s does not mention the trace ID", stitched)
	}
	// ... and an unknown ID must answer 404.
	_, status, err = get(base + "/trace?trace_id=ffffffffffffffffffffffffffffffff")
	if err != nil {
		return err
	}
	if status != http.StatusNotFound {
		return fmt.Errorf("unknown trace_id answered %d, want 404", status)
	}
	return nil
}

func get(url string) ([]byte, int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}
