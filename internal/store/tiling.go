package store

import (
	"strconv"
	"strings"

	"sparseart/internal/tensor"
)

// Tiling is the paper's §II-B remedy written once: the coordinate
// remapping p → (tile, offset) over a fixed grid of tiles. It answers
// every geometric question the tiled layers ask — which tile holds a
// point, what that tile is called, how far it extends, which tiles a
// region covers — so Store (tiles of one process) and serve.Router
// (tiles across shard processes) derive from one declaration and cannot
// drift. A tile's identity is its name ("t-i-j-k", the per-dimension
// indices): the name is the tile's directory on disk and its key on the
// router's hash ring. It is deliberately not a row-major ordinal — the
// grid of a shape like {1<<63, 1<<63} over {1<<20, 1<<20} tiles has
// 2^86 cells, and shapes past uint64 are the reason tiling exists.
//
// Methods write into caller-owned buffers, so the per-point path (divide,
// append digits, look the bytes up) allocates nothing.
type Tiling struct {
	Shape tensor.Shape // global extents
	Tile  tensor.Shape // interior tile extents; edge tiles clip to Shape
}

// Single reports whether the grid is one tile: every extent covers
// the shape, so the tile's frame is the global one.
func (t Tiling) Single() bool {
	for d, n := range t.Shape {
		if t.Tile[d] < n {
			return false
		}
	}
	return true
}

// Index writes the per-dimension tile index of global point p into idx.
func (t Tiling) Index(idx, p []uint64) {
	for d := range p {
		idx[d] = p[d] / t.Tile[d]
	}
}

// Origin returns the global coordinate, along dimension d, of the first
// cell of the tile at idx: what a tile-local coordinate is offset by.
func (t Tiling) Origin(idx []uint64, d int) uint64 { return idx[d] * t.Tile[d] }

// AppendName appends the name of the tile at idx ("t-0-12") to dst.
func (t Tiling) AppendName(dst []byte, idx []uint64) []byte {
	dst = append(dst, 't')
	for _, v := range idx {
		dst = strconv.AppendUint(append(dst, '-'), v, 10)
	}
	return dst
}

// ParseName inverts AppendName for this tiling's rank. Only the
// canonical spelling parses (no signs, no leading zeros), so a parsed
// index always re-spells the name it came from.
func (t Tiling) ParseName(name string) ([]uint64, bool) {
	if !strings.HasPrefix(name, "t-") {
		return nil, false
	}
	parts := strings.Split(name[2:], "-")
	if len(parts) != len(t.Shape) {
		return nil, false
	}
	idx := make([]uint64, len(parts))
	for d, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil || (len(p) > 1 && p[0] == '0') {
			return nil, false
		}
		idx[d] = v
	}
	return idx, true
}

// Extent returns the edge-clipped extents of the tile at idx.
func (t Tiling) Extent(idx []uint64) tensor.Shape {
	ext := make(tensor.Shape, len(idx))
	for d := range idx {
		ext[d] = min(t.Tile[d], t.Shape[d]-t.Origin(idx, d))
	}
	return ext
}

// last returns the last in-shape coordinate region covers along
// dimension d; ok is false when it covers none. This is the tiling's one
// clamp: an extent that overflows uint64 or reaches past the shape (a
// query's may) ends at the shape's edge.
func (t Tiling) last(region tensor.Region, d int) (uint64, bool) {
	start, size := region.Start[d], region.Size[d]
	if size == 0 || start >= t.Shape[d] {
		return 0, false
	}
	last := start + size - 1
	if last < start || last >= t.Shape[d] {
		last = t.Shape[d] - 1
	}
	return last, true
}

// Range returns the hyper-rectangle [lo, hi] of tile indices region
// overlaps; ok is false when region covers no cell of the shape.
func (t Tiling) Range(region tensor.Region) (lo, hi []uint64, ok bool) {
	lo = make([]uint64, len(t.Shape))
	hi = make([]uint64, len(t.Shape))
	for d := range lo {
		last, ok := t.last(region, d)
		if !ok {
			return nil, nil, false
		}
		lo[d], hi[d] = region.Start[d]/t.Tile[d], last/t.Tile[d]
	}
	return lo, hi, true
}

// Within reports whether [lo, hi] holds at most limit tiles, without
// forming a product that can wrap.
func (t Tiling) Within(lo, hi []uint64, limit uint64) bool {
	span := uint64(1)
	for d := range lo {
		n := hi[d] - lo[d] + 1
		if span > limit/n {
			return false
		}
		span *= n
	}
	return true
}

// Next advances idx one step through [lo, hi], last dimension fastest,
// and reports whether a tile is left. Start a walk from a copy of lo.
func (t Tiling) Next(idx, lo, hi []uint64) bool {
	for d := len(idx) - 1; d >= 0; d-- {
		if idx[d] < hi[d] {
			idx[d]++
			return true
		}
		idx[d] = lo[d]
	}
	return false
}

// Clip intersects region with the tile at idx and returns the overlap
// in tile-local coordinates; ok is false when they do not overlap.
func (t Tiling) Clip(region tensor.Region, idx []uint64) (tensor.Region, bool) {
	ext := t.Extent(idx)
	start := make([]uint64, len(idx))
	for d := range idx {
		origin := t.Origin(idx, d)
		last, ok := t.last(region, d)
		first := max(region.Start[d], origin)
		last = min(last, origin+ext[d]-1)
		if !ok || first > last {
			return tensor.Region{}, false
		}
		start[d] = first - origin
		ext[d] = last - first + 1
	}
	return tensor.Region{Start: start, Size: ext}, true
}
