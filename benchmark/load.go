package main

import (
	"bufio"
	"context"
	"errors"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sparseart/internal/wire"
)

// opStream is one client's sequence of operations. Only do is timed:
// choosing the inputs and checking the reply against the oracle happen
// between requests, as a caller's own work between calls would.
type opStream interface {
	next()                        // choose the next operation's inputs
	do(ctx context.Context) error // send it and wait for the reply
	check(err error) bool         // is the reply what the oracle says?
}

// sample is one completed operation: when it ended and how long it
// took (ns since the run's base), how long the client spent between the
// previous reply and this send, and whether the reply was right.
type sample struct {
	end, lat, gap int64
	ok            bool
	refused       bool // the server's window was full (wire.ErrOverloaded)
}

// closedLoop runs s until stop is set: the next request goes out only
// after the previous reply was checked. With a recorder it numbers the
// requests and records the e2e span of each.
func closedLoop(s opStream, stop *atomic.Bool, base time.Time, rec *recorder) []sample {
	samples := make([]sample, 0, 1<<16)
	ctx := context.Background()
	prev := int64(time.Since(base))
	for !stop.Load() {
		s.next()
		var id uint64
		var t0r int64
		if rec != nil {
			id = rec.last.Add(1)
			rec.req.Store(id)
			t0r = rec.now()
		}
		t0 := int64(time.Since(base))
		err := s.do(ctx)
		t1 := int64(time.Since(base))
		if rec != nil {
			rec.add(span{Name: "e2e", Start: t0r, End: rec.now(), Req: id, Level: levelE2E, Shard: -1})
			rec.req.Store(0)
		}
		samples = append(samples, sample{end: t1, lat: t1 - t0, gap: t0 - prev, ok: s.check(err), refused: errors.Is(err, wire.ErrOverloaded)})
		prev = t1
	}
	return samples
}

// openResult is what one open-loop stretch saw.
type openResult struct {
	samples     []sample // lat counts from the intended send time; gap is how late the send was
	inflightEnd int      // requests still unanswered when the schedule ended
}

// openLoop sends one request every 1/rate seconds from a single
// scheduler goroutine, whether or not earlier requests have been
// answered, until stop is set or dur has passed. Latency is measured
// from the time the request was due, so a stall charges every request
// that should have been sent during it (no coordinated omission), and
// the scheduler's own lateness is reported beside it. Streams come from
// a free list; newStream is called when every stream is in flight.
func openLoop(newStream func() opStream, rate int, dur time.Duration, stop *atomic.Bool, base time.Time) openResult {
	var (
		mu       sync.Mutex
		samples  []sample
		free     []opStream
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	ctx := context.Background()
	start := time.Now()
	interval := time.Second / time.Duration(rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur || (stop != nil && stop.Load()) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		mu.Lock()
		var s opStream
		if n := len(free); n > 0 {
			s, free = free[n-1], free[:n-1]
		}
		mu.Unlock()
		if s == nil {
			s = newStream()
		}
		s.next()
		sent := time.Now()
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.do(ctx)
			end := time.Now()
			inflight.Add(-1)
			ok := s.check(err)
			mu.Lock()
			samples = append(samples, sample{end: int64(end.Sub(base)), lat: int64(end.Sub(due)), gap: int64(sent.Sub(due)), ok: ok, refused: errors.Is(err, wire.ErrOverloaded)})
			free = append(free, s)
			mu.Unlock()
		}()
	}
	res := openResult{inflightEnd: int(inflight.Load())}
	wg.Wait()
	res.samples = samples
	return res
}

// resources is the process's running cost at one instant.
type resources struct {
	cpuNs      int64 // user + system
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
}

func takeResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// rssPeakMB reads the process's resident-set high-water mark (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// segment is one measured stretch of a run.
type segment struct {
	ops                int
	opsPerS            float64
	p50, p99           float64 // ms
	cpuUs, allocs, kb  float64 // per op
	lateP99, gcPauseMs float64 // ms
}

// segments cuts the merged samples at the boundaries (ns since base;
// len(bounds) = number of segments + 1) and pairs each stretch with the
// resources spent in it.
func segments(samples []sample, bounds []int64, res []resources) []segment {
	out := make([]segment, len(bounds)-1)
	for k := range out {
		lo, hi := bounds[k], bounds[k+1]
		var lat, gap []float64
		for _, s := range samples {
			if s.end > lo && s.end <= hi {
				lat = append(lat, float64(s.lat)/1e6)
				gap = append(gap, float64(s.gap)/1e6)
			}
		}
		sort.Float64s(lat)
		sort.Float64s(gap)
		seg := segment{ops: len(lat), p50: percentile(lat, 50), p99: percentile(lat, 99), lateP99: percentile(gap, 99)}
		seg.opsPerS = float64(seg.ops) / (float64(hi-lo) / 1e9)
		if n := float64(seg.ops); n > 0 {
			seg.cpuUs = float64(res[k+1].cpuNs-res[k].cpuNs) / 1e3 / n
			seg.allocs = float64(res[k+1].mallocs-res[k].mallocs) / n
			seg.kb = float64(res[k+1].allocBytes-res[k].allocBytes) / 1024 / n
		}
		seg.gcPauseMs = float64(res[k+1].gcPauseNs-res[k].gcPauseNs) / 1e6
		out[k] = seg
	}
	return out
}

// latencies returns the samples' latencies in ms, sorted.
func latencies(samples []sample) []float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.lat) / 1e6
	}
	sort.Float64s(lat)
	return lat
}

// failures counts the samples whose reply was wrong or refused, or
// which took longer than limit (0 = no limit).
func failures(samples []sample, limit time.Duration) int {
	n := 0
	for _, s := range samples {
		if !s.ok || (limit > 0 && s.lat > int64(limit)) {
			n++
		}
	}
	return n
}
