// Package serve exposes an obs registry over HTTP: Prometheus text on
// /metrics for scrapers, the lossless Snapshot JSON on /snapshot for
// the fleet, the CLI and the checks, a Chrome trace_event timeline on
// /trace, the slow-query ring on /debug/slowlog, and the stdlib pprof
// handlers under /debug/pprof/. One Server wraps one registry; mount
// its Handler on any listener.
package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"

	"sparseart/internal/obs"
	"sparseart/internal/obs/export"
)

// Server serves one registry's telemetry. The zero value is not
// usable; construct with New.
type Server struct {
	reg *obs.Registry

	// OnScrape, when set, runs before every snapshot of the registry
	// (/metrics, /snapshot and /trace). A router uses it to pull and
	// absorb its shards' counters so a scrape sees the whole fleet; it
	// must be set before the Handler serves traffic.
	OnScrape func()
}

// New returns a Server over reg. A nil reg serves the process-global
// registry.
func New(reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.Global()
	}
	return &Server{reg: reg}
}

// Handler returns the mux with every telemetry endpoint mounted at its
// documented path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/trace", s.trace)
	mux.HandleFunc("/snapshot", s.snapshot)
	mux.HandleFunc("/debug/slowlog", s.slowlog)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// capture runs the OnScrape hook, then snapshots the registry.
func (s *Server) capture() *obs.Snapshot {
	if s.OnScrape != nil {
		s.OnScrape()
	}
	return s.reg.Snapshot()
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", export.ContentTypePrometheus)
	w.Write(export.Prometheus(s.capture()))
}

// trace serves the trace spans as a Chrome trace_event timeline.
// ?trace_id=<32 hex> narrows them to one request's tree — the per-query
// drill-down after a slow-log line names the culprit.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	snap := s.capture()
	if id := r.URL.Query().Get("trace_id"); id != "" {
		var keep []obs.TraceSpan
		for _, ts := range snap.TraceSpans {
			if ts.TraceID() == id {
				keep = append(keep, ts)
			}
		}
		if keep == nil {
			http.Error(w, "no spans for trace_id "+strconv.Quote(id), http.StatusNotFound)
			return
		}
		snap = &obs.Snapshot{TraceSpans: keep}
	}
	out, err := export.ChromeTrace(snap)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// slowlog serves the in-memory slow-query ring as JSONL, newest last —
// the same line format the -slowlog file sink writes.
func (s *Server) slowlog(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.reg.SlowLog().WriteJSONL(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// snapshot serves Snapshot.JSON, which obs.DecodeSnapshot reads back.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	out, err := s.capture().JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}
