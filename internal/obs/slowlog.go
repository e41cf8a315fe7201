package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog is a threshold-triggered structured log of expensive
// requests: any query whose duration reaches the threshold is recorded
// as one SlowEntry carrying the full per-query cost breakdown. Entries
// land in a bounded ring (newest kept, served by /debug/slowlog) and,
// when a sink is set, stream out as JSON Lines.
//
// The threshold is a duration in nanoseconds: negative disables the
// log entirely (the default), zero logs every request, positive logs
// requests at or above it. The serving cmds set it from their -slowlog
// flag (SetThreshold).
type SlowLog struct {
	threshold atomic.Int64 // ns; < 0 disabled

	mu   sync.Mutex
	ring []SlowEntry
	head int // next overwrite index once full
	cap  int
	sink io.Writer
}

// SlowEntry is one logged request. Cost keys mirror the span-attribute
// names of the recording site (probes, candidates, filter_skipped,
// cache_hits, cache_misses, fragments, bytes_read, shards, ...).
type SlowEntry struct {
	TimeUnixNs int64            `json:"ts_unix_ns"`
	Proc       string           `json:"proc,omitempty"`
	Op         string           `json:"op"`
	Kind       string           `json:"kind,omitempty"`
	TraceID    string           `json:"trace_id,omitempty"`
	DurNs      int64            `json:"dur_ns"`
	DeadlineNs int64            `json:"deadline_ns,omitempty"` // remaining at completion
	Cost       map[string]int64 `json:"cost,omitempty"`
	Err        string           `json:"err,omitempty"`
}

// defaultSlowLogCap bounds the in-memory slow-entry ring.
const defaultSlowLogCap = 1024

// SlowLog returns the registry's slow-query log, creating it — disabled
// — on first use. Nil on a nil registry (and every SlowLog method is
// nil-safe).
func (r *Registry) SlowLog() *SlowLog {
	if r == nil {
		return nil
	}
	if l := r.slowlog.Load(); l != nil {
		return l
	}
	l := &SlowLog{cap: defaultSlowLogCap}
	l.threshold.Store(-1)
	if r.slowlog.CompareAndSwap(nil, l) {
		return l
	}
	return r.slowlog.Load()
}

// SetThreshold sets the logging threshold; negative disables.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l != nil {
		l.threshold.Store(int64(d))
	}
}

// SetSink streams every recorded entry to w as one JSON line, in
// addition to the ring. Pass nil to stop streaming.
func (l *SlowLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// Triggered reports whether a request of duration d should be logged —
// the one cheap atomic check on the hot path.
func (l *SlowLog) Triggered(d time.Duration) bool {
	if l == nil {
		return false
	}
	t := l.threshold.Load()
	return t >= 0 && int64(d) >= t
}

// Record inserts one entry (unconditionally — callers gate on
// Triggered) into the ring and the sink, stamping the time if unset.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil {
		return
	}
	if e.TimeUnixNs == 0 {
		e.TimeUnixNs = time.Now().UnixNano()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cap == 0 {
		l.cap = defaultSlowLogCap
	}
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.head] = e
		l.head = (l.head + 1) % l.cap
	}
	if l.sink != nil {
		if b, err := json.Marshal(e); err == nil {
			l.sink.Write(append(b, '\n'))
		}
	}
}

// Entries returns the ring's contents oldest-first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) == 0 {
		return nil
	}
	out := make([]SlowEntry, 0, len(l.ring))
	out = append(out, l.ring[l.head:]...)
	out = append(out, l.ring[:l.head]...)
	return out
}

// WriteJSONL renders the ring as JSON Lines, oldest first.
func (l *SlowLog) WriteJSONL(w io.Writer) error {
	for _, e := range l.Entries() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
