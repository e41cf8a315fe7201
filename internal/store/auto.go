package store

import (
	"sparseart/internal/complexity"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// This file holds the scan side of a region read and the price a
// planned read (StrategyAuto) puts on each side, per fragment, once the
// fragment is open (readPlan.scans): probing the window cell by cell,
// the paper's strategy, costs Table I's read slope times the window's
// cells; scanning costs the stored points the reader's pruned walk
// reaches (core.RegionScanner.ScanShare). CSF and COO-sorted walks seek
// and stop on the window's coordinates, so they scan all but the
// smallest windows; the remapped walks (LINEAR, GCS, BCOO) and unordered
// COO visit the whole fragment, so they probe small windows.

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

// preferScan applies Table I to one fragment of kind holding n points:
// it compares the model's marginal cost of probing nRead cells with a
// scan that reaches share of the n points. The marginal cost is the
// slope of the model's read formula (its n_read-independent terms, like
// GCS's one-off transform pass, belong to both strategies).
func preferScan(kind core.Kind, shape tensor.Shape, n, nRead uint64, share float64) bool {
	params := complexity.Params{
		N:        float64(max(n, 1)),
		NRead:    float64(max(nRead, 1)),
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
	return probeCost > float64(n)*share
}
