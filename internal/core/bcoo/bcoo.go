// Package bcoo implements a HiCOO-style blocked coordinate organization
// (Li, Sun, Vuduc, SC'18), the COO variant the paper's §II-A mentions
// but leaves out of its comparison matrix. The tensor is partitioned
// into aligned blocks of 2^7 = 128 cells per dimension; points are
// sorted by (block, within-block offset) and stored as a block directory
// (full-width block coordinates plus a pointer vector) and one byte per
// dimension of within-block offset per point.
//
// As a level composition (core.Decl) it is the (block, offset) remap
// (core.MapBlock) over a d-wide block level and a byte-wide d-wide
// offset level, both binary-searched.
//
// Against the paper's baselines this trades COO's d×8 bytes per point
// for d×1 bytes plus amortized block headers — a large win whenever
// points cluster (TSP bands, MSP blobs) and a loss on pathologically
// scattered data. The ablation benchmarks quantify it.
package bcoo

import (
	"fmt"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

const magic = 0x314f4342 // "BCO1"

// blockBits gives 128-cell block extents, HiCOO's choice.
const blockBits = 7

// Format is the blocked-COO organization.
type Format struct{}

// New returns the format with HiCOO's 128-cell blocks.
func New() Format { return Format{} }

func init() { core.Register(New()) }

// Kind implements core.Format.
func (Format) Kind() core.Kind { return core.BCOO }

func blocks(d int, bits uint8) core.Decl {
	return core.Decl{Map: core.MapBlock, Bits: bits, Levels: []core.Level{
		{Width: d, Search: core.Binary},
		{Width: d, Bytes: true, Search: core.Binary},
	}}
}

func decl(shape tensor.Shape) (core.Decl, error) { return blocks(shape.Dims(), blockBits), nil }

// header: magic u32 · dims u16 · blockBits u8 · reserved u8 ·
// shape u64[d].
func header(w *buf.Writer, shape tensor.Shape, d *core.Decl) {
	w.U32(magic)
	w.U16(uint16(shape.Dims()))
	w.U8(d.Bits)
	w.U8(0)
	w.RawU64s(shape)
}

func parse(r *buf.Reader, shape tensor.Shape) (core.Decl, error) {
	r.Expect(magic, "BCOO payload")
	d := r.U16()
	bits := r.U8()
	r.U8()
	stored := tensor.Shape(r.RawU64s(uint64(d)))
	if !stored.Equal(shape) {
		return core.Decl{}, fmt.Errorf("payload shape %v does not match %v", stored, shape)
	}
	return blocks(int(d), bits), nil
}

// Build implements core.Format: bucket points into blocks, sort by
// (block, local offset), and emit the block directory plus byte-wide
// local offsets.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	return core.Build(f.Kind(), c, shape, decl, header)
}

// Open implements core.Format. Lookup binary-searches the block
// directory, then the block's sorted local offsets. The block width is
// read from the header: any width in [1, 8] opens, so offsets fit a
// byte.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	return core.Open(f.Kind(), payload, shape, parse)
}
