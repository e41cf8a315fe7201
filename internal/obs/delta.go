package obs

// Delta computes what happened between two snapshots of the same
// registry: prev taken earlier, cur taken later. It is the inverse of
// the Absorb merge — absorbing the returned delta into a registry that
// matches prev reproduces cur's counters and histogram contents. The
// router's fleet scrape absorbs each shard's Delta since its previous
// pull, and the benchmark's traced runs difference each shard's
// registry across the measured window with it.
//
// Semantics per section:
//
//   - Counters subtract; a counter that did not move is omitted. A
//     counter that went backwards (the registry was swapped out) is
//     reported at its current value, as a cumulative reset would be.
//   - Gauges are instantaneous, so the delta carries cur's values
//     verbatim for every gauge present.
//   - Histograms subtract bucket-wise along with count and sum; a
//     histogram with no new observations is omitted. MinNs/MaxNs remain
//     the lifetime extremes (the histogram does not track per-interval
//     extremes), which Absorb folds in harmlessly.
//   - Trace spans: the spans cur carries and prev did not.
//
// A nil prev (or one with no sections) makes Delta equivalent to cur.
func Delta(prev, cur *Snapshot) *Snapshot {
	if cur == nil {
		return &Snapshot{}
	}
	if prev == nil {
		prev = &Snapshot{}
	}
	d := &Snapshot{InFlight: cur.InFlight}
	for name, v := range cur.Counters {
		dv := v - prev.Counters[name]
		if dv < 0 {
			dv = v // registry reset: report the new cumulative value
		}
		if dv != 0 {
			if d.Counters == nil {
				d.Counters = map[string]int64{}
			}
			d.Counters[name] = dv
		}
	}
	if len(cur.Gauges) > 0 {
		d.Gauges = make(map[string]int64, len(cur.Gauges))
		for name, v := range cur.Gauges {
			d.Gauges[name] = v
		}
	}
	for name, h := range cur.Histograms {
		dh := subtractHistogram(prev.Histograms[name], h)
		if dh.Count == 0 && dh.SumNs == 0 && len(dh.Buckets) == 0 {
			continue
		}
		if d.Histograms == nil {
			d.Histograms = map[string]HistogramSnapshot{}
		}
		d.Histograms[name] = dh
	}
	// Trace spans live in a ring that overwrites its oldest entries, so
	// a length-based tail is wrong once the ring wraps. Span IDs are
	// unique random 64-bit values, so the delta is exactly cur's spans
	// whose IDs prev did not carry — each span crosses a scrape chain
	// once, no matter how the ring moved underneath.
	if len(cur.TraceSpans) > 0 {
		seen := make(map[uint64]struct{}, len(prev.TraceSpans))
		for _, ts := range prev.TraceSpans {
			seen[ts.SpanID] = struct{}{}
		}
		for _, ts := range cur.TraceSpans {
			if _, ok := seen[ts.SpanID]; !ok {
				d.TraceSpans = append(d.TraceSpans, ts)
			}
		}
	}
	return d
}

// subtractHistogram computes cur minus prev bucket-wise. A shrunken
// count (registry reset) returns cur whole, mirroring the counter rule.
func subtractHistogram(prev, cur HistogramSnapshot) HistogramSnapshot {
	if prev.Count == 0 {
		return cur
	}
	if cur.Count < prev.Count || cur.SumNs < prev.SumNs {
		return cur
	}
	d := HistogramSnapshot{
		Count: cur.Count - prev.Count,
		SumNs: cur.SumNs - prev.SumNs,
		MinNs: cur.MinNs,
		MaxNs: cur.MaxNs,
	}
	prevByLow := make(map[int64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevByLow[b.LowNs] = b.Count
	}
	for _, b := range cur.Buckets {
		if n := b.Count - prevByLow[b.LowNs]; n > 0 {
			d.Buckets = append(d.Buckets, BucketCount{LowNs: b.LowNs, Count: n})
		}
	}
	return d
}
