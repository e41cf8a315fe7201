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
// Reading (CSF_READ) descends from the root, binary-searching each
// level's sibling range, so a probe costs O(d · log fanout).
package csf

import (
	"fmt"
	"sort"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

const magic = 0x31465343 // "CSF1"

// Format is the CSF organization.
type Format struct {
	Opts core.Options
	// BinarySearch descends the tree with per-level binary search
	// instead of the linear sibling scan of Algorithm 2 line 10
	// ("if p_coor[i] in fids[l:u]"). The paper-faithful default is the
	// linear scan — it is what makes the paper's CSF slower than
	// GCSR++/GCSC++ on 2D tensors (huge root fanout) yet faster on
	// 3D/4D (small per-level ranges); the binary variant is an
	// ablation.
	BinarySearch bool
}

// New returns the format with the paper's serial options.
func New() Format { return Format{} }

func init() { core.Register(New()) }

// Kind implements core.Format.
func (Format) Kind() core.Kind { return core.CSF }

// WithOptions implements core.OptionSetter.
func (f Format) WithOptions(o core.Options) core.Format {
	f.Opts = o
	return f
}

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

// Build implements core.Format following CSF_BUILD.
func (f Format) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	defer obs.Time("core.build", "kind", "CSF")()
	obs.Count("core.build.points", int64(c.Len()), "kind", "CSF")
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	d := shape.Dims()
	if c.Dims() != d {
		return nil, fmt.Errorf("csf: %d-dim coords for %d-dim shape", c.Dims(), d)
	}
	n := c.Len()
	for i := 0; i < n; i++ {
		if !shape.Contains(c.At(i)) {
			return nil, fmt.Errorf("csf: point %v outside shape %v", c.At(i), shape)
		}
	}
	dims := dimOrder(shape)

	// Sort points lexicographically in permuted-dimension order
	// (Algorithm 2 line 7).
	order := psort.SortPerm(n, f.Opts.Parallelism, func(i, j int) bool {
		pi, pj := c.At(i), c.At(j)
		for _, dim := range dims {
			if pi[dim] != pj[dim] {
				return pi[dim] < pj[dim]
			}
		}
		return i < j
	})

	// Emit the tree level by level in one pass over the sorted points:
	// a point opens a new node at every level at or below the first
	// level where its permuted prefix differs from its predecessor's.
	fids := make([][]uint64, d)
	fptr := make([][]uint64, d-1)
	for i := 0; i < n; i++ {
		p := c.At(order[i])
		diff := 0
		if i > 0 {
			prev := c.At(order[i-1])
			for diff < d-1 && p[dims[diff]] == prev[dims[diff]] {
				diff++
			}
		}
		for lvl := diff; lvl < d; lvl++ {
			if lvl < d-1 {
				fptr[lvl] = append(fptr[lvl], uint64(len(fids[lvl+1])))
			}
			fids[lvl] = append(fids[lvl], p[dims[lvl]])
		}
	}
	for lvl := 0; lvl < d-1; lvl++ {
		fptr[lvl] = append(fptr[lvl], uint64(len(fids[lvl+1]))) // sentinel
	}

	// Serialize (Algorithm 2 line 19: concatenate nfibs, fids, fptr).
	words := 8
	for lvl := 0; lvl < d; lvl++ {
		words += len(fids[lvl]) + 1
	}
	for lvl := 0; lvl < d-1; lvl++ {
		words += len(fptr[lvl])
	}
	w := buf.NewWriter(8 * words)
	w.U32(magic)
	w.U16(uint16(d))
	w.U16(0) // reserved
	w.RawU64s(shape)
	for _, dim := range dims {
		w.U64(uint64(dim))
	}
	for lvl := 0; lvl < d; lvl++ {
		w.U64(uint64(len(fids[lvl]))) // nfibs
	}
	for lvl := 0; lvl < d; lvl++ {
		w.RawU64s(fids[lvl])
	}
	for lvl := 0; lvl < d-1; lvl++ {
		w.RawU64s(fptr[lvl])
	}
	return &core.BuildResult{Payload: w.Bytes(), Perm: tensor.InvertPerm(order)}, nil
}

// Open implements core.Format.
func (f Format) Open(payload []byte, shape tensor.Shape) (core.Reader, error) {
	r := buf.NewReader(payload)
	r.Expect(magic, "CSF payload")
	d := int(r.U16())
	r.U16()
	stored := tensor.Shape(r.RawU64s(uint64(d)))
	dims := make([]int, d)
	for i := range dims {
		dims[i] = int(r.U64())
	}
	nfibs := r.RawU64s(uint64(d))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("csf: %w", err)
	}
	if d < 1 {
		return nil, fmt.Errorf("csf: payload has no dimensions")
	}
	fids := make([][]uint64, d)
	for lvl := 0; lvl < d; lvl++ {
		fids[lvl] = r.RawU64s(nfibs[lvl])
	}
	fptr := make([][]uint64, d-1)
	for lvl := 0; lvl < d-1; lvl++ {
		fptr[lvl] = r.RawU64s(nfibs[lvl] + 1)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("csf: %w", err)
	}
	if !stored.Equal(shape) {
		return nil, fmt.Errorf("csf: payload shape %v does not match %v", stored, shape)
	}
	seen := make([]bool, d)
	for _, dim := range dims {
		if dim < 0 || dim >= d || seen[dim] {
			return nil, fmt.Errorf("csf: corrupt dimension permutation %v", dims)
		}
		seen[dim] = true
	}
	// Structural validation so corrupt payloads fail here instead of
	// panicking a descent or walk.
	for lvl := 0; lvl < d-1; lvl++ {
		ptr := fptr[lvl]
		if len(ptr) > 0 && (ptr[0] != 0 || ptr[len(ptr)-1] != nfibs[lvl+1]) {
			return nil, fmt.Errorf("csf: corrupt fptr bounds at level %d", lvl)
		}
		for i := 1; i < len(ptr); i++ {
			if ptr[i] < ptr[i-1] || ptr[i] > nfibs[lvl+1] {
				return nil, fmt.Errorf("csf: fptr not monotone at level %d", lvl)
			}
		}
	}
	for lvl := 0; lvl < d; lvl++ {
		ext := stored[dims[lvl]]
		for _, c := range fids[lvl] {
			if c >= ext {
				return nil, fmt.Errorf("csf: coordinate %d out of extent %d at level %d", c, ext, lvl)
			}
		}
	}
	return &Tree{
		shape: stored, dims: dims, nfibs: nfibs, fids: fids, fptr: fptr, binary: f.BinarySearch,
		probes: obs.NewSampled(obs.Global().Counter("core.probe", "kind", "CSF"), obs.DefaultSamplePeriod),
	}, nil
}

// Tree is the in-memory CSF tree; it implements core.Reader and exposes
// the structural vectors for inspection tools and the stencil example.
type Tree struct {
	shape  tensor.Shape
	dims   []int
	nfibs  []uint64
	fids   [][]uint64
	fptr   [][]uint64
	binary bool
	// probes counts Lookup calls, sampled: the shared core.probe
	// counter is touched once per flush period, not per point.
	probes *obs.SampledCounter
}

// NNZ implements core.Reader: the leaf level has one node per point.
func (t *Tree) NNZ() int {
	if len(t.fids) == 0 {
		return 0
	}
	return len(t.fids[len(t.fids)-1])
}

// IndexWords implements core.PayloadSizer: the sum of all level sizes —
// between O(n+d) and O(n·d) depending on prefix sharing, the variance
// the paper's Figure 4 discussion dwells on.
func (t *Tree) IndexWords() int {
	words := len(t.nfibs)
	for _, f := range t.fids {
		words += len(f)
	}
	for _, f := range t.fptr {
		words += len(f)
	}
	return words
}

// NFibs returns the node count per level.
func (t *Tree) NFibs() []uint64 { return t.nfibs }

// Fids returns the per-level node coordinates.
func (t *Tree) Fids() [][]uint64 { return t.fids }

// Fptr returns the per-level child offsets.
func (t *Tree) Fptr() [][]uint64 { return t.fptr }

// DimOrder returns the dimension permutation applied before sorting.
func (t *Tree) DimOrder() []int { return t.dims }

// searchBinary binary-searches v[lo:hi] (ascending) for the leftmost
// occurrence of x. Leftmost matters at the leaf level, where duplicate
// input coordinates produce equal adjacent leaves; returning the first
// keeps the binary and linear descents interchangeable.
func searchBinary(v []uint64, lo, hi uint64, x uint64) (uint64, bool) {
	end := hi
	for lo < hi {
		mid := (lo + hi) / 2
		if v[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && v[lo] == x {
		return lo, true
	}
	return 0, false
}

// searchLinear scans v[lo:hi] (ascending) for x with early exit, the
// literal membership test of Algorithm 2 line 10.
func searchLinear(v []uint64, lo, hi uint64, x uint64) (uint64, bool) {
	for i := lo; i < hi; i++ {
		if v[i] == x {
			return i, true
		}
		if v[i] > x {
			break
		}
	}
	return 0, false
}

// Lookup implements core.Reader following CSF_READ: descend level by
// level, narrowing the sibling range through fptr.
func (t *Tree) Lookup(p []uint64) (int, bool) {
	t.probes.Inc()
	d := len(t.dims)
	if len(p) != d || !t.shape.Contains(p) {
		return 0, false
	}
	search := searchLinear
	if t.binary {
		search = searchBinary
	}
	lo, hi := uint64(0), t.nfibs[0]
	var fi uint64
	for lvl := 0; lvl < d; lvl++ {
		var ok bool
		fi, ok = search(t.fids[lvl], lo, hi, p[t.dims[lvl]])
		if !ok {
			return 0, false
		}
		if lvl < d-1 {
			lo, hi = t.fptr[lvl][fi], t.fptr[lvl][fi+1]
		}
	}
	return int(fi), true
}

// Each implements core.Iterator with a depth-first walk, visiting the
// leaves in sorted (slot) order. The point slice is reused; callbacks
// must not retain it.
func (t *Tree) Each(visit func(p []uint64, slot int) bool) {
	d := len(t.dims)
	if d == 0 || t.NNZ() == 0 {
		return
	}
	p := make([]uint64, d)
	var walk func(lvl int, lo, hi uint64) bool
	walk = func(lvl int, lo, hi uint64) bool {
		for fi := lo; fi < hi; fi++ {
			p[t.dims[lvl]] = t.fids[lvl][fi]
			if lvl == d-1 {
				if !visit(p, int(fi)) {
					return false
				}
			} else if !walk(lvl+1, t.fptr[lvl][fi], t.fptr[lvl][fi+1]) {
				return false
			}
		}
		return true
	}
	walk(0, 0, t.nfibs[0])
}

// ScanRegion implements core.RegionScanner: the walk descends only
// subtrees whose coordinate lies inside the region's bounds for that
// level's dimension, pruning whole fibers — the structural advantage a
// tree index has for windowed reads.
func (t *Tree) ScanRegion(r tensor.Region, visit func(p []uint64, slot int) bool) {
	d := len(t.dims)
	if d == 0 || t.NNZ() == 0 || r.Dims() != d {
		return
	}
	p := make([]uint64, d)
	var walk func(lvl int, lo, hi uint64) bool
	walk = func(lvl int, lo, hi uint64) bool {
		dim := t.dims[lvl]
		min, max := r.Start[dim], r.Start[dim]+r.Size[dim]-1
		for fi := lo; fi < hi; fi++ {
			c := t.fids[lvl][fi]
			if c < min {
				continue
			}
			if c > max {
				break // siblings are sorted ascending
			}
			p[dim] = c
			if lvl == d-1 {
				if !visit(p, int(fi)) {
					return false
				}
			} else if !walk(lvl+1, t.fptr[lvl][fi], t.fptr[lvl][fi+1]) {
				return false
			}
		}
		return true
	}
	walk(0, 0, t.nfibs[0])
}

var (
	_ core.Format        = Format{}
	_ core.Reader        = (*Tree)(nil)
	_ core.PayloadSizer  = (*Tree)(nil)
	_ core.Iterator      = (*Tree)(nil)
	_ core.RegionScanner = (*Tree)(nil)
)
