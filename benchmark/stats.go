package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest value with at least p percent of
// the samples at or below it. It never interpolates, so a reported p99
// is a latency some request actually had. Empty input gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering vals. Empty input gives 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is the distance between the first and third quartile, computed
// like Python's statistics.quantiles(vals, n=4) (the exclusive method
// the driver uses), so a spread printed here is the spread the driver
// will see. Fewer than two values have no spread.
func iqr(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // taken after clamping j, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return q(3) - q(1)
}

// summary is how every reported number is carried: the median over the
// run's repeats (segments, or set-ups), the quartile spread beside it,
// and the repeats themselves.
type summary struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	IQR     float64   `json:"iqr"`
	Repeats []float64 `json:"repeats,omitempty"`
}

// summarize folds one metric's per-repeat values.
func summarize(unit string, repeats []float64) summary {
	return summary{Value: median(repeats), Unit: unit, IQR: iqr(repeats), Repeats: repeats}
}

// spreadShare is the quartile spread as a share of the median, the
// quantity a regression bound is compared with.
func (s summary) spreadShare() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.IQR / s.Value)
}

// unionLen returns the total length covered by the half-open intervals
// iv (pairs of start, end), clipped to [lo, hi). Overlapping scatter
// children are counted once.
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		if x[0] < lo {
			x[0] = lo
		}
		if x[1] > hi {
			x[1] = hi
		}
		if x[1] > x[0] {
			s = append(s, x)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, end int64
	end = lo
	for _, x := range s {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// fitSlope is the least-squares slope of y over x; the codec's cost per
// result point is fitted over three result sizes with it.
func fitSlope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
