package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty p99 = %v", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-sample p99 = %v", got)
	}
}

func TestMedianAndIQRMatchPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) gives [q1, q2, q3]; IQR = q3 - q1.
	cases := []struct {
		v           []float64
		median, iqr float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3, 3},                               // [1.5, 3, 4.5]
		{[]float64{10, 12, 11, 30, 13, 9, 14, 12, 11, 10}, 11.5, 3.25}, // [10.0, 11.5, 13.25]
		{[]float64{2, 1}, 1.5, 1.5},                                    // [0.75, 1.5, 2.25]
		{[]float64{1, 2, 3}, 2, 2},                                     // [1, 2, 3]
		{[]float64{4}, 4, 0},
	}
	for _, c := range cases {
		if got := median(c.v); !near(got, c.median) {
			t.Errorf("median(%v) = %v, want %v", c.v, got, c.median)
		}
		if got := iqr(c.v); !near(got, c.iqr) {
			t.Errorf("iqr(%v) = %v, want %v", c.v, got, c.iqr)
		}
	}
	if v := []float64{3, 1, 2}; median(v) != 2 || v[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestSegmentsCutSamplesAndPairResources(t *testing.T) {
	ms := int64(1e6)
	// Two segments of one second. The first holds 4 ops of 1..4 ms, the
	// second 2 ops of 10 ms; one op ends in the warm-up, one after.
	samples := []sample{
		{end: 500 * ms, lat: 99 * ms},
		{end: 1100 * ms, lat: 1 * ms, gap: 10000}, {end: 1200 * ms, lat: 2 * ms, gap: 20000},
		{end: 1300 * ms, lat: 3 * ms, gap: 30000}, {end: 2000 * ms, lat: 4 * ms, gap: 40000},
		{end: 2500 * ms, lat: 10 * ms}, {end: 3000 * ms, lat: 10 * ms},
		{end: 3001 * ms, lat: 99 * ms},
	}
	bounds := []int64{1000 * ms, 2000 * ms, 3000 * ms}
	res := []resources{
		{cpuNs: 0, mallocs: 100, allocBytes: 0},
		{cpuNs: 8e6, mallocs: 500, allocBytes: 4096 * 4, gcPauseNs: 2e6},
		{cpuNs: 10e6, mallocs: 520, allocBytes: 4096*4 + 1024, gcPauseNs: 2e6},
	}
	segs := segments(samples, bounds, res)
	if len(segs) != 2 {
		t.Fatalf("%d segments", len(segs))
	}
	a, b := segs[0], segs[1]
	if a.ops != 4 || b.ops != 2 {
		t.Fatalf("ops %d, %d; a boundary sample belongs to the segment it ends", a.ops, b.ops)
	}
	if !near(a.opsPerS, 4) || !near(a.p50, 2) || !near(a.p99, 4) {
		t.Errorf("segment 0: %+v", a)
	}
	if !near(a.cpuUs, 2000) || !near(a.allocs, 100) || !near(a.kb, 4) || !near(a.gcPauseMs, 2) || !near(a.lateP99, 0.04) {
		t.Errorf("segment 0 resources: %+v", a)
	}
	if !near(b.cpuUs, 1000) || !near(b.allocs, 10) || !near(b.kb, 0.5) || b.gcPauseMs != 0 {
		t.Errorf("segment 1 resources: %+v", b)
	}
	// The run's value is the median over segments, with the spread beside it.
	s := summarize("ms", []float64{a.p50, b.p50})
	if !near(s.Value, 6) || !near(s.spreadShare(), 12.0/6) {
		t.Errorf("summary %+v", s)
	}
}

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	iv := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {45, 46}, {90, 200}}
	if got := unionLen(iv, 0, 100); got != 20+10+10 {
		t.Errorf("union = %d, want 40", got)
	}
	if got := unionLen(iv, 18, 42); got != 12+2 {
		t.Errorf("clipped union = %d, want 14", got)
	}
	if got := unionLen(nil, 0, 100); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}

func TestFitSlope(t *testing.T) {
	x := []float64{1, 2400, 65000}
	y := []float64{100 + 50*1, 100 + 50*2400, 100 + 50*65000}
	if got := fitSlope(x, y); !near(got, 50) {
		t.Errorf("slope = %v, want 50", got)
	}
	if got := fitSlope([]float64{3, 3}, []float64{1, 2}); got != 0 {
		t.Errorf("degenerate slope = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	sum := func(v, iqr float64) summary { return summary{Value: v, IQR: iqr} }
	cases := []struct {
		a, b   summary
		better string
		bound  float64
		want   string
	}{
		{sum(100, 1), sum(104, 1), "lower", 0.07, "ok"},
		{sum(100, 1), sum(110, 1), "lower", 0.07, "worse"},
		{sum(100, 1), sum(90, 1), "lower", 0.07, "ok"},
		{sum(100, 1), sum(90, 1), "higher", 0.07, "worse"},
		{sum(100, 1), sum(110, 1), "higher", 0.07, "ok"},
		{sum(100, 12), sum(104, 1), "lower", 0.07, "unresolved"}, // spread wider than the bound
		{sum(100, 12), sum(110, 1), "lower", 0.07, "unresolved"}, // a loss inside the spread is not a verdict
		{sum(100, 12), sum(130, 1), "lower", 0.07, "worse"},      // a loss beyond bound and spread is
	}
	for i, c := range cases {
		if got, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}
