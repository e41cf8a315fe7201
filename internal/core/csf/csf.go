// Package csf implements the Compressed Sparse Fiber organization
// (§II-E, Algorithm 2): a tree with one level per tensor dimension that
// deduplicates shared coordinate prefixes. Following CSF_BUILD, the
// dimensions are permuted into ascending-extent order — maximizing
// prefix sharing at the root and shrinking the upper levels — and the
// points are sorted lexicographically in that order before the three
// classic vectors are emitted:
//
//	nfibs[lvl]  node count at each level
//	fids[lvl]   the coordinate of every node at each level
//	fptr[lvl]   child offsets from level lvl into level lvl+1
//
// As a level composition (core.Decl) it is the dimension permutation
// over d compressed levels: fids are their crd vectors and fptr their
// pos vectors. Reading (CSF_READ) descends from the root, scanning each
// level's sibling range.
package csf

import (
	"fmt"
	"sort"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

const magic = 0x31465343 // "CSF1"

// Format is the CSF organization.
type Format struct {
	// BinarySearch descends the tree with per-level binary search
	// instead of the linear sibling scan of Algorithm 2 line 10
	// ("if p_coor[i] in fids[l:u]"). The paper-faithful default is the
	// linear scan — it is what makes the paper's CSF slower than
	// GCSR++/GCSC++ on 2D tensors (huge root fanout) yet faster on
	// 3D/4D (small per-level ranges); the binary variant is an
	// ablation. It selects the levels' core.Search in the declaration.
	BinarySearch bool
}

// New returns the format.
func New() Format { return Format{} }

func init() { core.Register(New()) }

// Kind implements core.Format.
func (Format) Kind() core.Kind { return core.CSF }

// dimOrder returns the permutation of dimensions by ascending extent
// (stable, so equal extents keep their original order), per Algorithm 2
// line 6.
func dimOrder(shape tensor.Shape) []int {
	perm := make([]int, len(shape))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return shape[perm[a]] < shape[perm[b]] })
	return perm
}

func (f Format) tree(dims []int) core.Decl {
	search := core.Ascending
	if f.BinarySearch {
		search = core.Binary
	}
	levels := make([]core.Level, len(dims))
	for i := range levels {
		levels[i] = core.Level{Width: 1, Search: search}
	}
	return core.Decl{Dims: dims, Levels: levels, Split: true}
}

func (f Format) decl(shape tensor.Shape) (core.Decl, error) { return f.tree(dimOrder(shape)), nil }

// header: magic u32 · dims u16 · reserved u16 · shape u64[d] ·
// dimPerm u64[d]; nfibs, fids and fptr follow (Algorithm 2 line 19).
func header(w *buf.Writer, shape tensor.Shape, d *core.Decl) {
	w.U32(magic)
	w.U16(uint16(shape.Dims()))
	w.U16(0)
	w.RawU64s(shape)
	for _, dim := range d.Dims {
		w.U64(uint64(dim))
	}
}

func (f Format) parse(r *buf.Reader, shape tensor.Shape) (core.Decl, error) {
	r.Expect(magic, "CSF payload")
	d := int(r.U16())
	r.U16()
	stored := tensor.Shape(r.RawU64s(uint64(d)))
	dims := make([]int, d)
	seen := make([]bool, d)
	for i := range dims {
		dim := r.U64()
		if dim >= uint64(d) || seen[dim] {
			return core.Decl{}, fmt.Errorf("corrupt dimension permutation")
		}
		dims[i], seen[dim] = int(dim), true
	}
	if !stored.Equal(shape) {
		return core.Decl{}, fmt.Errorf("payload shape %v does not match %v", stored, shape)
	}
	return f.tree(dims), nil
}

// Build implements core.Format following CSF_BUILD.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	return core.Build(f.Kind(), c, shape, f.decl, header)
}

// Open implements core.Format; Lookup follows CSF_READ, descending
// level by level and narrowing the sibling range through fptr.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	r, err := core.Open(f.Kind(), payload, shape, f.parse)
	if err != nil {
		return nil, err
	}
	return Tree{r.(*core.Index)}, nil
}

// Tree is the opened CSF tree; it implements core.Reader and exposes
// the structural vectors, views over the levels, for inspection tools
// and the stencil example.
type Tree struct{ *core.Index }

// NFibs returns the node count per level.
func (t Tree) NFibs() (nfibs []uint64) {
	for _, fids := range t.Fids() {
		nfibs = append(nfibs, uint64(len(fids)))
	}
	return nfibs
}

// Fids returns the per-level node coordinates: the levels' crd.
func (t Tree) Fids() (fids [][]uint64) {
	for l := range t.DimOrder() {
		fids = append(fids, t.Crd(l))
	}
	return fids
}

// Fptr returns the per-level child offsets: the pos of levels 1..d-1.
func (t Tree) Fptr() (fptr [][]uint64) {
	for l := 1; l < len(t.DimOrder()); l++ {
		fptr = append(fptr, t.Pos(l))
	}
	return fptr
}

// DimOrder returns the dimension permutation applied before sorting.
func (t Tree) DimOrder() []int { return t.Decl().Dims }
