// Package filter implements a fragment's two point filters, consulted
// by the read path before it fetches the fragment: Filter, per-dimension
// coordinate summaries that answer "might this fragment contain a point
// whose d-th coordinate is c?" (and the range form of the question),
// and Keys, a Bloom filter over the fragment's whole keys.
//
// A fragment's bounding box over-approximates its coordinate set badly
// for sparse data — a fragment holding points (0,0) and (999,999) has a
// bbox covering the whole plane — so the storage engine's overlap
// search admits fragments that cannot possibly answer a query. Both
// filters close part of that gap: a query that passes the bbox check
// consults them and skips the fragment (no file open, no probe) when
// one proves the requested points absent. False positives are allowed
// (the fragment is opened and probed for nothing); false negatives
// never happen — a point that was fed to a build always passes.
//
// The per-dimension summaries are not an LSM key filter. Each answers
// for one dimension alone, so once a fragment holds a few hundred
// points of a small tile, nearly every coordinate of every dimension
// occurs and nearly every absent point passes. They are what a region
// read can ask. Keys is the LSM filter (Bloom, CACM 1970): it hashes a
// point's linear address, the whole key, and is what a point read asks
// after the summaries.
//
// Filter has two encodings per dimension, chosen automatically:
//
//   - bitmap: when the dimension's bbox extent is small (≤ maxBitmapBits)
//     the filter stores one bit per coordinate in [min, max]. Exact — no
//     false positives — and range queries are a word scan.
//   - bloom: otherwise, a standard double-hashed bloom filter over the
//     dimension's distinct coordinate values. Point queries are
//     approximate; range queries degrade to "maybe" once the range is
//     wider than maxRangeProbe.
package filter

import (
	"fmt"
	"math/bits"

	"sparseart/internal/buf"
	"sparseart/internal/tensor"
)

const (
	kindBitmap = 0
	kindBloom  = 1

	// maxBitmapBits bounds the exact-bitmap encoding: a dimension whose
	// bbox extent fits in this many bits costs at most 1 KiB and stays
	// exact. Wider extents fall back to the bloom encoding.
	maxBitmapBits = 8192

	// Bloom sizing: bitsPerKey targets ~1% false positives at k
	// derived below; the bit count is clamped to [minBloomBits,
	// maxBloomBits] and rounded up to a power of two so the hash can
	// mask instead of mod.
	bloomBitsPerKey = 10
	minBloomBits    = 64
	maxBloomBits    = 1 << 15

	// maxRangeProbe bounds the per-coordinate probing a bloom filter is
	// willing to do for a range query; wider ranges answer "maybe".
	maxRangeProbe = 64
)

// dim is one dimension's summary.
type dim struct {
	kind  uint8
	base  uint64 // bitmap: the coordinate bit 0 stands for (bbox min)
	k     uint8  // bloom: number of hash probes
	nbits uint32
	words []uint64
}

// Filter summarizes the per-dimension coordinate sets of one fragment.
// The zero value is not useful; Build and Decode are the constructors.
// A Filter is immutable after construction and safe for concurrent use.
type Filter struct {
	dims []dim
}

// Build summarizes the coordinate set of c. Returns nil when c is
// empty — an empty fragment needs no filter. The result is a pure
// function of c's contents, so the serial write path and the batched
// ingest pipeline produce byte-identical encodings for the same batch.
func Build(c *tensor.Coords) *Filter {
	n := c.Len()
	if n == 0 {
		return nil
	}
	box, _ := c.Bounds()
	f := &Filter{dims: make([]dim, c.Dims())}
	for d := range f.dims {
		extent := box.Max[d] - box.Min[d] + 1
		if extent <= maxBitmapBits && extent > 0 { // extent==0 means Max-Min+1 overflowed
			f.dims[d] = dim{
				kind:  kindBitmap,
				base:  box.Min[d],
				nbits: uint32(extent),
				words: make([]uint64, (extent+63)/64),
			}
		} else {
			nbits := bloomSize(n)
			f.dims[d] = dim{
				kind:  kindBloom,
				k:     bloomHashes(nbits, n),
				nbits: nbits,
				words: make([]uint64, nbits/64),
			}
		}
	}
	for i := 0; i < n; i++ {
		p := c.At(i)
		for d := range f.dims {
			f.dims[d].add(uint16(d), p[d])
		}
	}
	return f
}

// bloomSize picks the bit count for n keys: bitsPerKey × n, clamped and
// rounded up to a power of two.
func bloomSize(n int) uint32 {
	want := uint64(n) * bloomBitsPerKey
	if want < minBloomBits {
		want = minBloomBits
	}
	if want > maxBloomBits {
		want = maxBloomBits
	}
	return uint32(1) << bits.Len64(want-1)
}

// bloomHashes derives the probe count k ≈ 0.7·m/n, clamped to [1, 6].
func bloomHashes(nbits uint32, n int) uint8 {
	k := int(float64(nbits) / float64(n) * 0.7)
	if k < 1 {
		k = 1
	}
	if k > 6 {
		k = 6
	}
	return uint8(k)
}

// mix64 is the splitmix64 finalizer: the bloom hash family's core.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (dm *dim) add(d uint16, c uint64) {
	switch dm.kind {
	case kindBitmap:
		bit := c - dm.base
		dm.words[bit/64] |= 1 << (bit % 64)
	default:
		h1 := mix64(c ^ (uint64(d)+1)*0x9e3779b97f4a7c15)
		h2 := mix64(h1) | 1
		mask := uint64(dm.nbits) - 1
		for i := uint8(0); i < dm.k; i++ {
			bit := (h1 + uint64(i)*h2) & mask
			dm.words[bit/64] |= 1 << (bit % 64)
		}
	}
}

func (dm *dim) mayContain(d uint16, c uint64) bool {
	switch dm.kind {
	case kindBitmap:
		if c < dm.base || c-dm.base >= uint64(dm.nbits) {
			return false
		}
		bit := c - dm.base
		return dm.words[bit/64]&(1<<(bit%64)) != 0
	default:
		h1 := mix64(c ^ (uint64(d)+1)*0x9e3779b97f4a7c15)
		h2 := mix64(h1) | 1
		mask := uint64(dm.nbits) - 1
		for i := uint8(0); i < dm.k; i++ {
			bit := (h1 + uint64(i)*h2) & mask
			if dm.words[bit/64]&(1<<(bit%64)) == 0 {
				return false
			}
		}
		return true
	}
}

// mayOverlapRange answers "might some stored coordinate lie in
// [lo, hi]?" (inclusive). Exact for bitmaps; blooms probe up to
// maxRangeProbe individual values and otherwise answer true.
func (dm *dim) mayOverlapRange(d uint16, lo, hi uint64) bool {
	if hi < lo {
		return false
	}
	switch dm.kind {
	case kindBitmap:
		end := dm.base + uint64(dm.nbits) - 1
		if hi < dm.base || lo > end {
			return false
		}
		if lo < dm.base {
			lo = dm.base
		}
		if hi > end {
			hi = end
		}
		for bit := lo - dm.base; bit <= hi-dm.base; {
			w := dm.words[bit/64] >> (bit % 64)
			if w != 0 {
				rem := 64 - bit%64
				if span := hi - dm.base - bit; span+1 < rem {
					rem = span + 1
				}
				if w&(^uint64(0)>>(64-rem)) != 0 {
					return true
				}
			}
			bit += 64 - bit%64
		}
		return false
	default:
		if hi-lo >= maxRangeProbe {
			return true
		}
		for c := lo; ; c++ {
			if dm.mayContain(d, c) {
				return true
			}
			if c == hi {
				return false
			}
		}
	}
}

// Dims returns the filter's rank.
func (f *Filter) Dims() int { return len(f.dims) }

// MayContainPoint reports whether the fragment might contain p: every
// dimension's summary must admit p's coordinate. A false result is
// definitive — no stored point has these coordinates.
func (f *Filter) MayContainPoint(p []uint64) bool {
	for d := range f.dims {
		if !f.dims[d].mayContain(uint16(d), p[d]) {
			return false
		}
	}
	return true
}

// MayOverlapRegion reports whether the fragment might contain a point
// inside the region. A false result is definitive: some dimension has
// no stored coordinate in the region's range there, so no stored point
// can lie inside it.
func (f *Filter) MayOverlapRegion(r tensor.Region) bool {
	for d := range f.dims {
		if !f.dims[d].mayOverlapRange(uint16(d), r.Start[d], r.Start[d]+r.Size[d]-1) {
			return false
		}
	}
	return true
}

// MayOverlapBox is MayOverlapRegion for an inclusive bounding box.
func (f *Filter) MayOverlapBox(b tensor.BBox) bool {
	for d := range f.dims {
		if !f.dims[d].mayOverlapRange(uint16(d), b.Min[d], b.Max[d]) {
			return false
		}
	}
	return true
}

// DimStats describes one dimension's summary for inspection tooling.
type DimStats struct {
	Kind string // "bitmap" or "bloom"
	Bits int    // filter width in bits
	Set  int    // bits set (fill ratio = Set/Bits)
}

// Stats returns per-dimension encoding statistics.
func (f *Filter) Stats() []DimStats {
	out := make([]DimStats, len(f.dims))
	for d, dm := range f.dims {
		st := DimStats{Kind: "bitmap", Bits: int(dm.nbits)}
		if dm.kind == kindBloom {
			st.Kind = "bloom"
		}
		for _, w := range dm.words {
			st.Set += bits.OnesCount64(w)
		}
		out[d] = st
	}
	return out
}

// EncodedSize returns the exact byte length Encode produces.
func (f *Filter) EncodedSize() int {
	n := 2
	for _, dm := range f.dims {
		n += 1 + 4 + 8*len(dm.words)
		if dm.kind == kindBitmap {
			n += 8
		} else {
			n += 1
		}
	}
	return n
}

// Encode serializes the filter. Layout (little-endian):
//
//	u16 dims
//	per dimension:
//	  u8  kind (0 bitmap, 1 bloom)
//	  bitmap: u64 base
//	  bloom:  u8 hash count
//	  u32 bits
//	  u64[ceil(bits/64)] words
func (f *Filter) Encode() []byte {
	w := buf.NewWriter(f.EncodedSize())
	w.U16(uint16(len(f.dims)))
	for _, dm := range f.dims {
		w.U8(dm.kind)
		if dm.kind == kindBitmap {
			w.U64(dm.base)
		} else {
			w.U8(dm.k)
		}
		w.U32(dm.nbits)
		w.RawU64s(dm.words)
	}
	return w.Bytes()
}

// Decode parses an encoded filter. Decode(Encode(f)) reproduces f
// exactly.
func Decode(b []byte) (*Filter, error) {
	r := buf.NewReader(b)
	nd := int(r.U16())
	f := &Filter{dims: make([]dim, 0, nd)}
	for i := 0; i < nd && r.Err() == nil; i++ {
		var dm dim
		dm.kind = r.U8()
		switch dm.kind {
		case kindBitmap:
			dm.base = r.U64()
		case kindBloom:
			dm.k = r.U8()
		default:
			return nil, fmt.Errorf("filter: unknown dimension kind %d", dm.kind)
		}
		dm.nbits = r.U32()
		words := (uint64(dm.nbits) + 63) / 64
		if dm.nbits == 0 || words*8 > uint64(r.Remaining()) {
			return nil, fmt.Errorf("filter: implausible %d-bit dimension in %d bytes", dm.nbits, r.Remaining())
		}
		if dm.kind == kindBloom {
			if dm.nbits&(dm.nbits-1) != 0 {
				return nil, fmt.Errorf("filter: bloom width %d not a power of two", dm.nbits)
			}
			if dm.k < 1 || dm.k > 6 {
				return nil, fmt.Errorf("filter: bloom hash count %d", dm.k)
			}
		}
		dm.words = r.RawU64s(words)
		f.dims = append(f.dims, dm)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("filter: %d trailing bytes", r.Remaining())
	}
	return f, nil
}
