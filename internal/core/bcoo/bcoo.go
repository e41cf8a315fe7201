// Package bcoo implements a HiCOO-style blocked coordinate organization
// (Li, Sun, Vuduc, SC'18), the COO variant the paper's §II-A mentions
// but leaves out of its comparison matrix. The tensor is partitioned
// into aligned blocks of 2^bits cells per dimension; points are sorted
// by (block, within-block offset) and stored as a block directory (full-
// width block coordinates plus a pointer vector) and one byte per
// dimension of within-block offset per point.
//
// Against the paper's baselines this trades COO's d×8 bytes per point
// for d×1 bytes plus amortized block headers — a large win whenever
// points cluster (TSP bands, MSP blobs) and a configurable loss on
// pathologically scattered data. The ablation benchmarks quantify it.
package bcoo

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

const magic = 0x314f4342 // "BCO1"

// DefaultBlockBits gives 128-cell block extents, HiCOO's choice.
const DefaultBlockBits = 7

// Format is the blocked-COO organization.
type Format struct {
	// BlockBits is log2 of the block extent per dimension, in [1, 8]
	// so offsets fit one byte; 0 means DefaultBlockBits.
	BlockBits uint8
	Opts      core.Options
}

// New returns the format with HiCOO's default 128-cell blocks.
func New() Format { return Format{} }

func init() { core.Register(New()) }

// Kind implements core.Format.
func (Format) Kind() core.Kind { return core.BCOO }

// WithOptions implements core.OptionSetter.
func (f Format) WithOptions(o core.Options) core.Format {
	f.Opts = o
	return f
}

func (f Format) bits() (uint8, error) {
	b := f.BlockBits
	if b == 0 {
		b = DefaultBlockBits
	}
	if b < 1 || b > 8 {
		return 0, fmt.Errorf("bcoo: block bits %d outside [1,8]", b)
	}
	return b, nil
}

// Build implements core.Format: bucket points into blocks, sort by
// (block, local offset), and emit the block directory plus byte-wide
// local offsets.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	defer obs.Time("core.build", "kind", "BCOO")()
	obs.Count("core.build.points", int64(c.Len()), "kind", "BCOO")
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if c.Dims() != shape.Dims() {
		return nil, fmt.Errorf("bcoo: %d-dim coords for %d-dim shape", c.Dims(), shape.Dims())
	}
	bits, err := f.bits()
	if err != nil {
		return nil, err
	}
	d := shape.Dims()
	n := c.Len()
	mask := uint64(1)<<bits - 1

	for i := 0; i < n; i++ {
		if !shape.Contains(c.At(i)) {
			return nil, fmt.Errorf("bcoo: point %v outside shape %v", c.At(i), shape)
		}
	}

	// Sort by block tuple, then by local tuple, ties by input index.
	order := psort.SortPerm(n, f.Opts.Parallelism, func(i, j int) bool {
		pi, pj := c.At(i), c.At(j)
		for k := 0; k < d; k++ {
			bi, bj := pi[k]>>bits, pj[k]>>bits
			if bi != bj {
				return bi < bj
			}
		}
		for k := 0; k < d; k++ {
			li, lj := pi[k]&mask, pj[k]&mask
			if li != lj {
				return li < lj
			}
		}
		return i < j
	})

	// One pass emits the directory and the local offsets.
	var blocks []uint64 // nBlocks × d block coordinates, flat
	var bptr []uint64   // nBlocks+1 offsets into the point array
	locals := make([]byte, 0, n*d)
	prev := make([]uint64, d)
	for slot, idx := range order {
		p := c.At(idx)
		newBlock := slot == 0
		for k := 0; k < d && !newBlock; k++ {
			if p[k]>>bits != prev[k] {
				newBlock = true
			}
		}
		if newBlock {
			for k := 0; k < d; k++ {
				prev[k] = p[k] >> bits
			}
			blocks = append(blocks, prev...)
			bptr = append(bptr, uint64(slot))
		}
		for k := 0; k < d; k++ {
			locals = append(locals, byte(p[k]&mask))
		}
	}
	bptr = append(bptr, uint64(n))
	if n == 0 {
		bptr = []uint64{0}
	}
	nBlocks := len(bptr) - 1

	w := buf.NewWriter(32 + 8*(len(blocks)+len(bptr)+d) + len(locals))
	w.U32(magic)
	w.U16(uint16(d))
	w.U8(bits)
	w.U8(0) // reserved
	w.RawU64s(shape)
	w.U64(uint64(nBlocks))
	w.U64(uint64(n))
	w.RawU64s(blocks)
	w.RawU64s(bptr)
	w.Bytes32(locals)
	return &core.BuildResult{Payload: w.Bytes(), Perm: tensor.InvertPerm(order)}, nil
}

// Open implements core.Format.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	r := buf.NewReader(payload)
	r.Expect(magic, "BCOO payload")
	d := int(r.U16())
	bits := r.U8()
	r.U8()
	stored := tensor.Shape(r.RawU64s(uint64(d)))
	nBlocks := r.U64()
	n := r.U64()
	blocks := r.RawU64s(nBlocks * uint64(d))
	bptr := r.RawU64s(nBlocks + 1)
	locals := r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bcoo: %w", err)
	}
	if !stored.Equal(shape) {
		return nil, fmt.Errorf("bcoo: payload shape %v does not match %v", stored, shape)
	}
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("bcoo: corrupt block bits %d", bits)
	}
	if uint64(len(locals)) != n*uint64(d) {
		return nil, fmt.Errorf("bcoo: %d local bytes for %d points", len(locals), n)
	}
	if nBlocks > 0 && bptr[nBlocks] != n {
		return nil, fmt.Errorf("bcoo: pointer sentinel %d != %d points", bptr[nBlocks], n)
	}
	if bptr[0] != 0 {
		return nil, fmt.Errorf("bcoo: pointer vector does not start at 0")
	}
	for i := 1; i < len(bptr); i++ {
		if bptr[i] < bptr[i-1] || bptr[i] > n {
			return nil, fmt.Errorf("bcoo: pointer vector not monotone at %d", i)
		}
	}
	return &reader{
		shape: stored, dims: d, bits: bits,
		blocks: blocks, bptr: bptr, locals: locals,
		probes: obs.NewSampled(obs.Global().Counter("core.probe", "kind", "BCOO"), obs.DefaultSamplePeriod),
	}, nil
}

type reader struct {
	shape  tensor.Shape
	dims   int
	bits   uint8
	blocks []uint64
	bptr   []uint64
	locals []byte
	// probes counts Lookup calls, sampled: the shared core.probe
	// counter is touched once per flush period, not per point.
	probes *obs.SampledCounter
}

// NNZ implements core.Reader.
func (r *reader) NNZ() int { return len(r.locals) / r.dims }

// IndexWords implements core.PayloadSizer, counting the byte-wide local
// offsets at their real cost in 8-byte words.
func (r *reader) IndexWords() int {
	return len(r.blocks) + len(r.bptr) + (len(r.locals)+7)/8
}

// Blocks returns the number of occupied blocks.
func (r *reader) Blocks() int { return len(r.bptr) - 1 }

// cmpBlock compares the probe's block tuple against directory entry bi.
func (r *reader) cmpBlock(p []uint64, bi int) int {
	for k := 0; k < r.dims; k++ {
		pb := p[k] >> r.bits
		eb := r.blocks[bi*r.dims+k]
		if pb != eb {
			if pb < eb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Lookup implements core.Reader: binary-search the block directory,
// then binary-search the block's sorted local offsets.
func (r *reader) Lookup(p []uint64) (int, bool) {
	r.probes.Inc()
	if len(p) != r.dims || !r.shape.Contains(p) {
		return 0, false
	}
	lo, hi := 0, r.Blocks()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.cmpBlock(p, mid) > 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= r.Blocks() || r.cmpBlock(p, lo) != 0 {
		return 0, false
	}
	mask := uint64(1)<<r.bits - 1
	want := make([]byte, r.dims)
	for k := 0; k < r.dims; k++ {
		want[k] = byte(p[k] & mask)
	}
	s, e := int(r.bptr[lo]), int(r.bptr[lo+1])
	for s < e {
		mid := int(uint(s+e) >> 1)
		switch cmpLocal(r.locals[mid*r.dims:(mid+1)*r.dims], want) {
		case -1:
			s = mid + 1
		case 1:
			e = mid
		default:
			// Leftmost match, in case of duplicate input points.
			for mid > int(r.bptr[lo]) &&
				cmpLocal(r.locals[(mid-1)*r.dims:mid*r.dims], want) == 0 {
				mid--
			}
			return mid, true
		}
	}
	return 0, false
}

func cmpLocal(a, b []byte) int {
	for k := range a {
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Each implements core.Iterator, visiting points in packed order. The
// point slice is reused; callbacks must not retain it.
func (r *reader) Each(visit func(p []uint64, slot int) bool) {
	p := make([]uint64, r.dims)
	for bi := 0; bi < r.Blocks(); bi++ {
		for slot := int(r.bptr[bi]); slot < int(r.bptr[bi+1]); slot++ {
			for k := 0; k < r.dims; k++ {
				p[k] = r.blocks[bi*r.dims+k]<<r.bits | uint64(r.locals[slot*r.dims+k])
			}
			if !visit(p, slot) {
				return
			}
		}
	}
}

var (
	_ core.Format       = Format{}
	_ core.Reader       = (*reader)(nil)
	_ core.PayloadSizer = (*reader)(nil)
	_ core.Iterator     = (*reader)(nil)
)
