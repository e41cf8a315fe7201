package export

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"sparseart/internal/obs"
)

// Chrome trace_event JSON (the chrome://tracing / Perfetto "JSON Array
// with metadata" container). Each trace span becomes a ph:"X" complete
// event; nesting depth maps to its own named track (tid), so the
// Build/Reorg/Write phases of one store.write stack visually under
// their root span instead of flattening into one row. Timestamps are
// microseconds (the trace_event unit) with sub-microsecond precision
// kept as fractions.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func threadName(depth int) string {
	if depth == 0 {
		return "spans (root)"
	}
	return "spans depth " + strconv.Itoa(depth)
}

// ChromeTrace renders the snapshot's trace spans as a trace_event JSON
// document. Each source process (the span's Proc label — "client",
// "router", "shard:<dir>") gets its own pid, so a snapshot stitched
// from absorbed shard rings lays the whole fleet out as one timeline;
// within a process, nesting depth maps to its own track. Trace spans
// carry wall-clock start times, which agree across processes up to
// clock skew. Timestamps are rebased to the earliest span so the viewer
// opens at t≈0. Every event's args carry the trace/span/parent IDs, so
// a viewer (or scripts/checktrace) can reassemble parent links exactly.
// Output is deterministic.
func ChromeTrace(s *obs.Snapshot) ([]byte, error) {
	tr := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	procs := map[string][]obs.TraceSpan{}
	var base int64
	for i, ts := range s.TraceSpans {
		p := ts.Proc
		if p == "" {
			p = "unknown"
		}
		procs[p] = append(procs[p], ts)
		if i == 0 || ts.StartUnixNs < base {
			base = ts.StartUnixNs
		}
	}
	names := make([]string, 0, len(procs))
	for p := range procs {
		names = append(names, p)
	}
	sort.Strings(names)
	for pi, p := range names {
		pid := 100 + pi
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": p},
		})
		depths := map[int]bool{}
		for _, ts := range procs[p] {
			depths[ts.Depth] = true
		}
		sorted := make([]int, 0, len(depths))
		for d := range depths {
			sorted = append(sorted, d)
		}
		sort.Ints(sorted)
		for _, d := range sorted {
			tr.TraceEvents = append(tr.TraceEvents,
				chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: d + 1,
					Args: map[string]any{"name": threadName(d)},
				},
				chromeEvent{
					Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: d + 1,
					Args: map[string]any{"sort_index": d},
				},
			)
		}
		for _, ts := range procs[p] {
			args := map[string]any{
				"trace_id": ts.TraceID(),
				"span_id":  fmt.Sprintf("%016x", ts.SpanID),
			}
			if ts.ParentID != 0 {
				args["parent_id"] = fmt.Sprintf("%016x", ts.ParentID)
			}
			for _, a := range ts.Attrs {
				if a.Str != "" {
					args[a.Key] = a.Str
				} else {
					args[a.Key] = a.Int
				}
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: ts.Name,
				Ph:   "X",
				Ts:   float64(ts.StartUnixNs-base) / 1e3,
				Dur:  float64(ts.DurNs) / 1e3,
				Pid:  pid,
				Tid:  ts.Depth + 1,
				Args: args,
			})
		}
	}
	return json.MarshalIndent(tr, "", "  ")
}
