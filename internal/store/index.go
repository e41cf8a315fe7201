package store

import (
	"fmt"
	"sort"

	"sparseart/internal/buf"
	"sparseart/internal/tensor"
)

// Sub-linear fragment lookup: a uniform grid over the tensor domain
// mapping cells to the fragments whose bounding boxes touch them. Every
// query used to walk all F fragments to find the handful that overlap;
// with the grid a query visits only the buckets its box covers —
// O(cells + candidates) instead of O(F).
//
// A uniform grid was chosen over an interval/R-tree because its
// GEOMETRY is a pure function of the store shape: cell count and cell
// width never depend on the fragments inserted. That makes the
// copy-on-write epoch update trivial (appending fragments never splits
// or rebalances anything — it only appends ids to buckets) and makes
// the persisted form trivially verifiable on open (recompute the
// geometry from the shape; reject the section if it disagrees).
//
// Geometry: the first min(dims, 3) dimensions are indexed — 32 cells
// for dims 0 and 1, 8 for dim 2, capped at the dimension's extent — so
// a grid never exceeds 32*32*8 = 8192 buckets regardless of rank.
// Higher dimensions are not indexed; they are handled by the bbox
// overlap re-check every candidate goes through anyway. A fragment
// whose box covers more than maxCellsPerFrag cells goes on an overflow
// list consulted by every lookup — huge fragments would otherwise
// bloat every bucket they touch for no pruning benefit.
//
// Instances are immutable once published on a readView. The mutation
// path builds the next epoch's index either from scratch
// (buildFragIndex) or — the common case, since every mutation except
// compaction only appends fragments — by appended(), which shares
// untouched buckets with the previous epoch and copies only the
// buckets the new fragments land in.

const (
	// gridMaxDims bounds how many leading dimensions the grid indexes.
	gridMaxDims = 3
	// gridCellsMajor / gridCellsMinor: target cell counts per dimension
	// (dims 0-1 / dim 2), capped at the dimension extent.
	gridCellsMajor = 32
	gridCellsMinor = 8
	// maxCellsPerFrag: a fragment covering more cells than this goes on
	// the overflow list instead of into every bucket.
	maxCellsPerFrag = 64
)

// fragIndex is the immutable per-epoch spatial index. Fragment ids are
// positions in the epoch's fragment slice, stored as int32 (the
// manifest already bounds fragment counts far below 2^31).
type fragIndex struct {
	ncell    []int    // cells per indexed dimension, len = min(dims, gridMaxDims)
	cellW    []uint64 // cell width per indexed dimension (ceil(extent/ncell))
	stride   []int    // row-major bucket strides
	buckets  [][]int32
	overflow []int32 // fragments covering > maxCellsPerFrag cells
	n        int     // fragments covered: ids are in [0, n)
}

// gridGeometry derives cell counts and widths from the shape alone.
func gridGeometry(shape tensor.Shape) (ncell []int, cellW []uint64) {
	gd := len(shape)
	if gd > gridMaxDims {
		gd = gridMaxDims
	}
	ncell = make([]int, gd)
	cellW = make([]uint64, gd)
	for d := 0; d < gd; d++ {
		target := uint64(gridCellsMajor)
		if d >= 2 {
			target = gridCellsMinor
		}
		n := shape[d]
		if n > target {
			n = target
		}
		if n < 1 {
			n = 1
		}
		ncell[d] = int(n)
		cellW[d] = (shape[d] + n - 1) / n
		if cellW[d] == 0 {
			cellW[d] = 1
		}
	}
	return ncell, cellW
}

// newFragIndex allocates an empty grid for the shape.
func newFragIndex(shape tensor.Shape) *fragIndex {
	ncell, cellW := gridGeometry(shape)
	stride := make([]int, len(ncell))
	total := 1
	for d := len(ncell) - 1; d >= 0; d-- {
		stride[d] = total
		total *= ncell[d]
	}
	return &fragIndex{
		ncell:   ncell,
		cellW:   cellW,
		stride:  stride,
		buckets: make([][]int32, total),
	}
}

// buildFragIndex indexes every locatable fragment: data fragments and
// tombstones both (a tombstone's bbox equals its region's box, so index
// candidates serve the tombstone overlap scan too). Fragments with no
// points and no tombstone carry no box and are skipped — the lookup
// never returns them.
func buildFragIndex(shape tensor.Shape, frags []fragRef) *fragIndex {
	x := newFragIndex(shape)
	for i, fr := range frags {
		if fr.nnz == 0 && !fr.tomb {
			continue
		}
		x.insert(i, fr.bbox, false)
	}
	x.n = len(frags)
	return x
}

// appended returns a new index covering frags, sharing every bucket the
// suffix frags[from:] does not touch with the receiver. Touched buckets
// (and the overflow list, if appended to) are copied before writing —
// full-slice-expression appends force the copy even when the shared
// backing array has spare capacity — so the receiver stays safe for
// concurrent readers of the previous epoch.
func (x *fragIndex) appended(frags []fragRef, from int) *fragIndex {
	nx := &fragIndex{
		ncell:    x.ncell,
		cellW:    x.cellW,
		stride:   x.stride,
		buckets:  make([][]int32, len(x.buckets)),
		overflow: x.overflow[:len(x.overflow):len(x.overflow)],
		n:        len(frags),
	}
	copy(nx.buckets, x.buckets)
	for i := from; i < len(frags); i++ {
		fr := frags[i]
		if fr.nnz == 0 && !fr.tomb {
			continue
		}
		nx.insert(i, fr.bbox, true)
	}
	return nx
}

// insert files one fragment under every cell its box covers, or on the
// overflow list when the box covers too many. cow forces append-by-copy
// so shared buckets from a previous epoch are never written through.
func (x *fragIndex) insert(id int, box tensor.BBox, cow bool) {
	var lo, hi [gridMaxDims]int
	gd := len(x.ncell)
	x.cellRange(box, lo[:gd], hi[:gd])
	cells := 1
	for d := 0; d < gd; d++ {
		cells *= hi[d] - lo[d] + 1
	}
	if cells > maxCellsPerFrag {
		if cow {
			of := x.overflow
			x.overflow = append(of[:len(of):len(of)], int32(id))
		} else {
			x.overflow = append(x.overflow, int32(id))
		}
		return
	}
	x.eachCell(lo[:gd], hi[:gd], func(b int) {
		if cow {
			bk := x.buckets[b]
			x.buckets[b] = append(bk[:len(bk):len(bk)], int32(id))
		} else {
			x.buckets[b] = append(x.buckets[b], int32(id))
		}
	})
}

// cellRange maps a bounding box to inclusive cell coordinates, clamped
// to the grid (boxes at the shape boundary land in the last cell).
func (x *fragIndex) cellRange(box tensor.BBox, lo, hi []int) {
	for d := range lo {
		l := int(box.Min[d] / x.cellW[d])
		h := int(box.Max[d] / x.cellW[d])
		if l > x.ncell[d]-1 {
			l = x.ncell[d] - 1
		}
		if h > x.ncell[d]-1 {
			h = x.ncell[d] - 1
		}
		lo[d], hi[d] = l, h
	}
}

// eachCell walks the cross product of [lo[d], hi[d]] cell coordinates
// and calls f with each flat bucket number.
func (x *fragIndex) eachCell(lo, hi []int, f func(bucket int)) {
	var cur [gridMaxDims]int
	copy(cur[:], lo)
	for {
		b := 0
		for d := range lo {
			b += cur[d] * x.stride[d]
		}
		f(b)
		d := len(lo) - 1
		for d >= 0 {
			cur[d]++
			if cur[d] <= hi[d] {
				break
			}
			cur[d] = lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// lookup returns the ascending, deduplicated ids of every indexed
// fragment whose cells intersect box, restricted to ids below limit
// (snapshot-bounded reads pass the epoch's fragment count). The result
// is a superset of the truly overlapping fragments — callers re-check
// each candidate's bbox — and a subset of [0, limit).
func (x *fragIndex) lookup(box tensor.BBox, limit int) []int {
	var lo, hi [gridMaxDims]int
	gd := len(x.ncell)
	x.cellRange(box, lo[:gd], hi[:gd])
	var out []int
	x.eachCell(lo[:gd], hi[:gd], func(b int) {
		for _, id := range x.buckets[b] {
			if int(id) < limit {
				out = append(out, int(id))
			}
		}
	})
	for _, id := range x.overflow {
		if int(id) < limit {
			out = append(out, int(id))
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// stats summarizes the grid for inspection tooling.
func (x *fragIndex) stats() (buckets, filled, entries, overflow int) {
	for _, b := range x.buckets {
		if len(b) > 0 {
			filled++
		}
		entries += len(b)
	}
	return len(x.buckets), filled, entries, len(x.overflow)
}

// encode appends the index's manifest-section form: geometry first (so
// a reader can verify it against the shape before trusting anything
// else), then only the non-empty buckets as (cell, ids) pairs — a
// sparse store's grid is mostly empty cells.
func (x *fragIndex) encode(w *buf.Writer) {
	w.U16(uint16(len(x.ncell)))
	for d := range x.ncell {
		w.U32(uint32(x.ncell[d]))
		w.U64(x.cellW[d])
	}
	w.U64(uint64(x.n))
	filled := 0
	for _, b := range x.buckets {
		if len(b) > 0 {
			filled++
		}
	}
	w.U32(uint32(filled))
	for cell, b := range x.buckets {
		if len(b) == 0 {
			continue
		}
		w.U32(uint32(cell))
		w.U32(uint32(len(b)))
		for _, id := range b {
			w.U32(uint32(id))
		}
	}
	w.U32(uint32(len(x.overflow)))
	for _, id := range x.overflow {
		w.U32(uint32(id))
	}
}

// decodeFragIndex reads an encoded grid and validates it against the
// geometry the shape dictates and the fragment count the manifest
// carries. Any disagreement is an error; the caller falls back to
// rebuilding from the fragment list, so a stale or corrupt section can
// never produce wrong query results — only a slower open.
func decodeFragIndex(r *buf.Reader, shape tensor.Shape, nfrags int) (*fragIndex, error) {
	x := newFragIndex(shape)
	gd := int(r.U16())
	if gd != len(x.ncell) {
		return nil, fmt.Errorf("store: index section: %d grid dims, shape dictates %d", gd, len(x.ncell))
	}
	for d := 0; d < gd; d++ {
		nc := int(r.U32())
		cw := r.U64()
		if nc != x.ncell[d] || cw != x.cellW[d] {
			return nil, fmt.Errorf("store: index section: dim %d geometry %d/%d, shape dictates %d/%d",
				d, nc, cw, x.ncell[d], x.cellW[d])
		}
	}
	n := int(r.U64())
	if n != nfrags {
		return nil, fmt.Errorf("store: index section covers %d fragments, manifest has %d", n, nfrags)
	}
	filled := int(r.U32())
	if filled < 0 || filled > len(x.buckets) {
		return nil, fmt.Errorf("store: index section: %d filled buckets of %d", filled, len(x.buckets))
	}
	prev := -1
	for i := 0; i < filled; i++ {
		cell := int(r.U32())
		cnt := int(r.U32())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if cell <= prev || cell >= len(x.buckets) {
			return nil, fmt.Errorf("store: index section: bucket %d out of order or range", cell)
		}
		if cnt <= 0 || cnt > n {
			return nil, fmt.Errorf("store: index section: bucket %d holds %d ids (%d fragments exist)", cell, cnt, n)
		}
		b := make([]int32, cnt)
		for j := range b {
			id := r.U32()
			if int(id) >= n {
				return nil, fmt.Errorf("store: index section: fragment id %d out of range", id)
			}
			b[j] = int32(id)
		}
		x.buckets[cell] = b
		prev = cell
	}
	ocnt := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if ocnt < 0 || ocnt > n {
		return nil, fmt.Errorf("store: index section: %d overflow ids (%d fragments exist)", ocnt, n)
	}
	x.overflow = make([]int32, 0, ocnt)
	for i := 0; i < ocnt; i++ {
		id := r.U32()
		if int(id) >= n {
			return nil, fmt.Errorf("store: index section: overflow id %d out of range", id)
		}
		x.overflow = append(x.overflow, int32(id))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	x.n = n
	return x, nil
}
