package store

import (
	"sparseart/internal/complexity"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// This file holds the scan side of a region read and the choice
// StrategyAuto makes per fragment (both plugged into Store.read): the
// Table I complexity model decides between the paper's probe strategy
// (one existence query per region cell) and the scan strategy (one pass
// over the fragment's stored points). Probing wins when the region is
// small relative to the fragment; scanning wins for the scan-read
// organizations (COO, LINEAR) on any sizable window.

// scanFragment walks one fragment's stored points inside region — all
// of them when region is nil — in scan mode. Every reader prunes a
// region walk at the index levels the region bounds
// (core.RegionScanner).
func scanFragment(reader core.Reader, region *tensor.Region, visit func(p []uint64, slot int) bool) {
	if region == nil {
		reader.(core.Iterator).Each(visit)
		return
	}
	reader.(core.RegionScanner).ScanRegion(*region, visit)
}

// preferScan applies Table I: compare the model's marginal probe cost
// for nRead queries against the O(n) scan pass over one fragment of n
// points. The marginal cost is taken as the slope of the model's read
// formula (its n_read-independent terms, like GCS's one-off transform
// pass, belong to both strategies).
//
// The decision is deliberately the *worst-case* Table I slope: GCS row
// probes usually early-exit well before n/min{m} comparisons, so the
// model errs toward scanning for mid-sized windows. That conservatism
// is cheap — a scan is never catastrophic, while quadratic probing of a
// large window is.
func preferScan(kind core.Kind, shape tensor.Shape, n, nRead uint64) bool {
	params := complexity.Params{
		N:        float64(max64(n, 1)),
		NRead:    float64(max64(nRead, 1)),
		Shape:    shape,
		CSFShare: 0.5,
	}
	e1, err := complexity.For(kind, params)
	if err != nil {
		return false // unknown organization: keep the paper's strategy
	}
	params.NRead *= 2
	e2, err := complexity.For(kind, params)
	if err != nil {
		return false
	}
	probeCost := e2.Read - e1.Read // slope × nRead
	return probeCost > float64(n)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
