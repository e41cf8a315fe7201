package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sparseart/internal/buf"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

// Every organization is one recipe (§II): remap the coordinates into a
// key tuple, sort the keys, and package them level by level into index
// vectors. A Decl names the remap and the levels; Build, Open and the
// Index reader below are the only build, parse, descent and walk in
// the module, and a format package contributes its Decl and its
// payload header.

// Search is how a compressed level finds a key among one parent's
// entries.
type Search uint8

const (
	// Unordered scans every entry in insertion order (COO, LINEAR).
	Unordered Search = iota
	// Ascending scans sorted entries and stops past the key, the
	// literal membership test of Algorithm 2 line 10.
	Ascending
	// Binary binary-searches sorted entries for the leftmost match.
	Binary
)

// Level is one level of an index. A dense level stores nothing: it
// addresses every coordinate of its key component's extent, and only
// the first level may be dense (GCS's pointer axis). A compressed level
// stores, per entry of its parent, a pos range into its crd vector of
// Width key components each. The last level holds one entry per point,
// duplicates included, and its entry number is the point's value slot;
// the levels above it share the prefixes of sorted neighbours. Build's
// sort breaks ties on input order, so a point written twice keeps its
// writes in order, and Lookup answers with the last: the last
// duplicate wins, as a scan's merge decides.
type Level struct {
	Dense  bool
	Width  int  // key components the level consumes
	Bytes  bool // crd stored one byte per component instead of eight
	Search Search
}

// Map names a coordinate remap.
type Map uint8

const (
	// MapPermute keys a point by its coordinates in the order Dims
	// lists them, or as they are when Dims is nil.
	MapPermute Map = iota
	// MapLinear keys a point by its row-major linear address (§II-B).
	MapLinear
	// MapGrid keys a point by (row, col) of the Rows × Cols matrix its
	// row-major address falls in (Algorithm 1), or by (col, row) when
	// ColMajor.
	MapGrid
	// MapBlock keys a point by its block tuple p >> Bits followed by its
	// within-block offsets p & (2^Bits - 1), HiCOO's (block, offset).
	MapBlock
)

// Decl declares an organization for one shape: the coordinate remap,
// the levels that store the remapped keys (their widths sum to the key
// width), and how the payload body is laid out.
type Decl struct {
	Map        Map
	Dims       []int  // MapPermute
	Rows, Cols uint64 // MapGrid
	ColMajor   bool   // MapGrid
	Bits       uint8  // MapBlock
	Levels     []Level
	// Split lays the body out the way Algorithm 2 line 19 concatenates
	// CSF — the level sizes (nfibs), every level's crd, then every
	// level's pos — and counts the sizes as index words. Otherwise the
	// sizes are followed by each level's pos, then its crd.
	Split bool
}

// level is a Level with its vectors.
type level struct {
	Level
	key     int    // first key component
	slot    int    // where a walk lands component key (Index.dims)
	ordered bool   // entries ascend in their first component
	leaf    bool   // the last level: entry numbers are value slots
	n       uint64 // entries
	pos     []uint64
	crd     []uint64
	crd8    []byte
}

// Index is an opened payload: the remap bound to its shape, and the
// levels. It implements Reader, PayloadSizer, Iterator and
// RegionScanner for every organization.
type Index struct {
	decl  Decl
	shape tensor.Shape
	lin   *tensor.Linearizer
	// dims[j] is where key component j lands in a walk: the point's
	// dimension under MapPermute (key j is p[dims[j]]), position j of
	// the key tuple otherwise.
	dims   []int
	ext    []uint64 // extent of every key component
	levels []level
	// probes counts Lookup calls, sampled: the shared core.probe
	// counter is touched once per flush period, not per point.
	probes *obs.SampledCounter
}

// bind checks d against shape and lays out its remap and levels.
func bind(d Decl, shape tensor.Shape) (*Index, error) {
	x := &Index{decl: d, shape: shape, dims: d.Dims}
	var err error
	if d.Map == MapLinear || d.Map == MapGrid {
		if x.lin, err = tensor.NewLinearizer(shape, tensor.RowMajor); err != nil {
			return nil, err
		}
	}
	switch d.Map {
	case MapPermute:
		x.ext = slices.Clone(shape)
		for j, dim := range d.Dims {
			x.ext[j] = shape[dim]
		}
	case MapLinear:
		vol, _ := shape.Volume()
		x.ext = []uint64{vol}
	case MapGrid:
		x.ext = []uint64{d.Rows, d.Cols}
		if d.ColMajor {
			x.ext = []uint64{d.Cols, d.Rows}
		}
	case MapBlock:
		if d.Bits < 1 || d.Bits > 8 {
			return nil, fmt.Errorf("block bits %d outside [1,8]", d.Bits)
		}
		x.ext = make([]uint64, 2*len(shape))
		for j, m := range shape {
			x.ext[j], x.ext[len(shape)+j] = (m-1)>>d.Bits+1, 1<<d.Bits
		}
	}
	if x.dims == nil || d.Map != MapPermute {
		x.dims = make([]int, len(x.ext))
		for j := range x.dims {
			x.dims[j] = j
		}
	}
	key := 0
	x.levels = make([]level, 0, len(d.Levels))
	for i, l := range d.Levels {
		if l.Width < 1 || (l.Dense && (i > 0 || l.Width != 1)) || key+l.Width > len(x.ext) {
			return nil, fmt.Errorf("malformed level %d", i)
		}
		lv := level{Level: l, key: key, slot: x.dims[key], ordered: l.Dense || l.Search != Unordered, leaf: i == len(d.Levels)-1}
		if key += l.Width; l.Dense {
			if lv.n = x.ext[lv.key]; lv.n == math.MaxUint64 {
				return nil, fmt.Errorf("%w: dense extent %d", tensor.ErrOverflow, lv.n)
			}
		}
		x.levels = append(x.levels, lv)
	}
	if key != len(x.ext) || key == 0 {
		return nil, fmt.Errorf("levels consume %d of %d key components", key, len(x.ext))
	}
	return x, nil
}

// key writes p's key tuple into k.
func (x *Index) key(p, k []uint64) {
	switch d := &x.decl; d.Map {
	case MapPermute:
		for j, dim := range x.dims {
			k[j] = p[dim]
		}
	case MapLinear:
		k[0] = x.lin.Linearize(p)
	case MapGrid:
		l := x.lin.Linearize(p)
		k[0], k[1] = l/d.Cols, l%d.Cols
		if d.ColMajor {
			k[0], k[1] = k[1], k[0]
		}
	case MapBlock:
		for j, c := range p {
			k[j], k[len(p)+j] = c>>d.Bits, c&(1<<d.Bits-1)
		}
	}
}

// point inverts key: it writes the point whose key tuple is k into p.
func (x *Index) point(k, p []uint64) {
	switch d := &x.decl; d.Map {
	case MapLinear:
		x.lin.Delinearize(k[0], p)
	case MapGrid:
		r, c := k[0], k[1]
		if d.ColMajor {
			r, c = c, r
		}
		x.lin.Delinearize(r*d.Cols+c, p)
	case MapBlock:
		for j := range p {
			p[j] = k[j]<<d.Bits | k[len(p)+j]
		}
	}
}

// bounds narrows, per key component, lo and hi to the range every point
// of the box [first, last] keys into; components the box does not bound
// keep the full range.
func (x *Index) bounds(first, last, lo, hi []uint64) {
	switch d := &x.decl; d.Map {
	case MapPermute:
		for j, dim := range x.dims {
			lo[j], hi[j] = first[dim], last[dim]
		}
	case MapLinear:
		lo[0], hi[0] = x.lin.Linearize(first), x.lin.Linearize(last)
	case MapGrid:
		row := 0
		if d.ColMajor {
			row = 1
		}
		lo[row], hi[row] = x.lin.Linearize(first)/d.Cols, x.lin.Linearize(last)/d.Cols
	case MapBlock:
		for j := range first {
			lo[j], hi[j] = first[j]>>d.Bits, last[j]>>d.Bits
		}
	}
}

// keys is the key tuples Build sorts and packs: component j of point i
// is flat[i*stride+cols[j]] — the coordinates themselves for MapPermute,
// a computed n × width array otherwise.
type keys struct {
	flat   []uint64
	stride int
	cols   []int
}

func (kv *keys) at(i, j int) uint64 { return kv.flat[i*kv.stride+kv.cols[j]] }

func (kv *keys) less(i, j int) bool {
	for _, c := range kv.cols {
		if a, b := kv.flat[i*kv.stride+c], kv.flat[j*kv.stride+c]; a != b {
			return a < b
		}
	}
	return i < j
}

// body calls f for every vector after the level sizes, in payload
// order: level l's pos (pos true) or crd.
func (x *Index) body(f func(l int, pos bool)) {
	for l := range x.levels {
		if l > 0 && !x.decl.Split {
			f(l, true)
		}
		if !x.levels[l].Dense {
			f(l, false)
		}
	}
	for l := 1; l < len(x.levels) && x.decl.Split; l++ {
		f(l, true)
	}
}

// Build packages the points of c under the Decl decl returns for shape,
// following the paper's recipe: validate, remap, sort by (key tuple,
// input index) unless every level is unordered, pack every level in
// one pass over the sorted keys, and return the sort as the map vector.
// header writes the organization's payload header; the level sizes
// follow it, one u64 per compressed level, then the body.
func Build(kind Kind, c *tensor.Coords, shape tensor.Shape, decl func(tensor.Shape) (Decl, error), header func(*buf.Writer, tensor.Shape, *Decl)) (*BuildResult, error) {
	defer obs.Time("core.build", "kind", kind.String())()
	obs.Count("core.build.points", int64(c.Len()), "kind", kind.String())
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if c.Dims() != shape.Dims() {
		return nil, fmt.Errorf("%v: %d-dim coords for %d-dim shape", kind, c.Dims(), shape.Dims())
	}
	d, err := decl(shape)
	var x *Index
	if err == nil {
		x, err = bind(d, shape)
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %w", kind, err)
	}
	n, width := c.Len(), len(x.ext)
	kv := keys{flat: c.Flat(), stride: c.Dims(), cols: x.dims}
	if d.Map != MapPermute {
		kv.flat, kv.stride = make([]uint64, n*width), width
	}
	for i := 0; i < n; i++ {
		if p := c.At(i); !shape.Contains(p) {
			return nil, fmt.Errorf("%v: point %v outside shape %v", kind, p, shape)
		} else if d.Map != MapPermute {
			x.key(p, kv.flat[i*width:(i+1)*width])
		}
	}
	var order []int
	if len(x.levels) > 1 || x.levels[0].ordered {
		order = psort.SortPerm(n, 0, kv.less)
	}
	x.pack(&kv, n, order)

	w := buf.NewWriter(64 + 16*len(shape) + 8*x.IndexWords())
	header(w, shape, &d)
	for _, lv := range x.levels {
		if !lv.Dense {
			w.U64(lv.n)
		}
	}
	x.body(func(l int, pos bool) {
		switch lv := &x.levels[l]; {
		case pos:
			w.RawU64s(lv.pos)
		case lv.Bytes:
			w.Bytes32(lv.crd8)
		default:
			w.RawU64s(lv.crd)
		}
	})
	res := &BuildResult{Payload: w.Bytes()}
	if order != nil {
		res.Perm = tensor.InvertPerm(order)
	}
	return res, nil
}

// pack emits every level in one pass over the points in order (input
// order when order is nil) — CSF_BUILD's loop, generalized: a point
// opens a new entry at every level at or below the first one whose key
// components differ from its predecessor's, and at the leaf always. An
// entry opened above the leaf starts its child's pos range.
func (x *Index) pack(kv *keys, n int, order []int) {
	last := len(x.levels) - 1
	if order == nil && !x.levels[0].Bytes && (x.decl.Map != MapPermute || x.decl.Dims == nil) {
		// One unordered level over contiguous keys: they are its crd.
		x.levels[0].crd, x.levels[0].n = kv.flat[:n*kv.stride], uint64(n)
		return
	}
	if leaf := &x.levels[last]; leaf.Bytes {
		leaf.crd8 = make([]byte, 0, n*leaf.Width)
	} else {
		leaf.crd = make([]uint64, 0, n*leaf.Width)
	}
	for s, prev := 0, 0; s < n; s++ {
		i := s
		if order != nil {
			i = order[s]
		}
		l := 0
		for same := s > 0; same && l < last; l++ {
			for j := x.levels[l].key; j < x.levels[l].key+x.levels[l].Width && same; j++ {
				same = kv.at(i, j) == kv.at(prev, j)
			}
			if !same {
				break
			}
		}
		for ; l <= last; l++ {
			lv := &x.levels[l]
			e := lv.n
			if lv.Dense {
				e = kv.at(i, lv.key)
			} else {
				lv.n++
				for j := lv.key; j < lv.key+lv.Width; j++ {
					if lv.Bytes {
						lv.crd8 = append(lv.crd8, byte(kv.at(i, j)))
					} else {
						lv.crd = append(lv.crd, kv.at(i, j))
					}
				}
			}
			for l < last && uint64(len(x.levels[l+1].pos)) <= e {
				x.levels[l+1].pos = append(x.levels[l+1].pos, x.levels[l+1].n)
			}
		}
		prev = i
	}
	for l := 1; l <= last; l++ {
		for child := &x.levels[l]; uint64(len(child.pos)) <= x.levels[l-1].n; {
			child.pos = append(child.pos, child.n)
		}
	}
}

// Open parses a payload Build wrote: the header through parse, which
// returns the payload's Decl (a short header fails with the reader's
// error, whatever parse returns), the level sizes and vectors, then one
// structural check — every pos runs monotone from 0 to its level's
// size, and every crd lies inside its key component's extent — so a
// corrupt payload fails here, not in a descent or walk. The vectors are
// views of payload where buf.Reader.U64View can take them (and byte
// levels always are), so the index shares payload: nobody may mutate or
// recycle it while the index is in use.
func Open(kind Kind, payload []byte, shape tensor.Shape, parse func(*buf.Reader, tensor.Shape) (Decl, error)) (Reader, error) {
	r := buf.NewReader(payload)
	d, err := parse(r, shape)
	if r.Err() != nil {
		err = r.Err()
	}
	var x *Index
	if err == nil {
		x, err = bind(d, shape)
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %w", kind, err)
	}
	for l := range x.levels {
		if !x.levels[l].Dense {
			x.levels[l].n = r.U64()
		}
	}
	x.body(func(l int, pos bool) {
		switch lv := &x.levels[l]; {
		case pos:
			lv.pos = r.U64View(x.levels[l-1].n + 1)
		case lv.Bytes:
			lv.crd8 = r.Bytes32()
		default:
			lv.crd = r.U64View(lv.n * uint64(lv.Width))
		}
	})
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%v: %w", kind, err)
	}
	if err := x.check(); err != nil {
		return nil, fmt.Errorf("%v: corrupt payload: %w", kind, err)
	}
	x.probes = obs.NewSampled(obs.Global().Counter("core.probe", "kind", kind.String()), obs.DefaultSamplePeriod)
	return x, nil
}

func (x *Index) check() error {
	for l := range x.levels {
		lv := &x.levels[l]
		if pos := lv.pos; l > 0 {
			if len(pos) == 0 || uint64(len(pos)-1) != x.levels[l-1].n || pos[0] != 0 || pos[len(pos)-1] != lv.n {
				return fmt.Errorf("level %d pos does not run from 0 to %d over %d entries", l, lv.n, x.levels[l-1].n)
			}
			if !slices.IsSorted(pos) {
				return fmt.Errorf("level %d pos not monotone", l)
			}
		}
		size := len(lv.crd) + len(lv.crd8)
		if w := uint64(lv.Width); !lv.Dense && (uint64(size)/w != lv.n || uint64(size)%w != 0) {
			return fmt.Errorf("level %d holds %d coordinates for %d entries", l, size, lv.n)
		}
		if ext := x.ext[lv.key : lv.key+lv.Width]; !within(lv.crd, ext) || !within(lv.crd8, ext) {
			return fmt.Errorf("level %d holds a coordinate outside its extent", l)
		}
	}
	return nil
}

// within reports whether every coordinate of crd, len(ext) components
// per entry, lies inside its component's extent.
func within[T uint8 | uint64](crd []T, ext []uint64) bool {
	j := 0
	for _, c := range crd {
		if uint64(c) >= ext[j] {
			return false
		}
		if j++; j == len(ext) {
			j = 0
		}
	}
	return true
}

// at returns key component j of entry e.
func (lv *level) at(e uint64, j int) uint64 {
	i := e*uint64(lv.Width) + uint64(j)
	if lv.Bytes {
		return uint64(lv.crd8[i])
	}
	return lv.crd[i]
}

// compare orders entry e against the first len(k) components of a key.
func (lv *level) compare(e uint64, k []uint64) int {
	for j, want := range k {
		if c := lv.at(e, j); c != want {
			return cmp.Compare(c, want)
		}
	}
	return 0
}

// span returns the entries under entry e of the parent level.
func (lv *level) span(e uint64) (uint64, uint64) {
	if lv.pos == nil { // the first level
		return 0, lv.n
	}
	return lv.pos[e], lv.pos[e+1]
}

// seek returns the first entry in [lo, hi) not ordered before k, for a
// level whose entries ascend.
func (lv *level) seek(k []uint64, lo, hi uint64) uint64 {
	if lv.Dense {
		return min(lo+k[0], hi)
	}
	for lo < hi {
		if mid := lo + (hi-lo)/2; lv.compare(mid, k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the last entry in [lo, hi) whose key components are k.
// Only the leaf level repeats a key — a point written twice into one
// fragment — and its later entry is the later write, the one a walk
// reaches last, so a probe and a scan read the same value.
func (lv *level) find(k []uint64, lo, hi uint64) (uint64, bool) {
	if lv.Dense {
		return k[0], true
	}
	if lv.Search == Binary {
		lo = lv.seek(k, lo, hi)
	}
	if !lv.ordered {
		// Insertion order: the last match is the first from the end.
		if lv.Width == 1 && !lv.Bytes {
			for e := hi; e > lo; e-- {
				if lv.crd[e-1] == k[0] {
					return e - 1, true
				}
			}
			return 0, false
		}
		for e := hi; e > lo; e-- {
			if lv.compare(e-1, k) == 0 {
				return e - 1, true
			}
		}
		return 0, false
	}
	e, ok := uint64(0), false
	if lv.Width == 1 && !lv.Bytes {
		for i, c := range lv.crd[lo:hi] {
			if c > k[0] {
				break
			}
			if c == k[0] {
				e, ok = lo+uint64(i), true
			}
		}
		return e, ok
	}
	for i := lo; i < hi; i++ {
		c := lv.compare(i, k)
		if c > 0 {
			break
		}
		if c == 0 {
			e, ok = i, true
		}
	}
	return e, ok
}

// NNZ implements Reader: the last level holds one entry per point.
func (x *Index) NNZ() int { return int(x.levels[len(x.levels)-1].n) }

// IndexWords implements PayloadSizer: every pos and crd word, byte-wide
// coordinates at their cost in 8-byte words, and the level sizes when
// they are a vector of the organization (CSF's nfibs) — the space
// quantity of Table I.
func (x *Index) IndexWords() int {
	words, bytes := 0, 0
	for _, lv := range x.levels {
		words += len(lv.pos) + len(lv.crd)
		bytes += len(lv.crd8)
	}
	if x.decl.Split {
		words += len(x.levels)
	}
	return words + (bytes+7)/8
}

// Lookup implements Reader, following the paper's READ algorithms: the
// probe is remapped into a stack buffer and descends the levels, each
// narrowing the entry range its child searches.
func (x *Index) Lookup(p []uint64) (int, bool) {
	x.probes.Inc()
	if !x.shape.Contains(p) {
		return 0, false
	}
	var stack [16]uint64
	k := stack[:]
	if len(x.ext) > len(stack) {
		k = make([]uint64, len(x.ext))
	}
	x.key(p, k)
	e, ok := uint64(0), false
	for i := range x.levels {
		lv := &x.levels[i]
		lo, hi := lv.span(e)
		if e, ok = lv.find(k[lv.key:lv.key+lv.Width], lo, hi); !ok {
			return 0, false
		}
	}
	return int(e), true
}

// walker is the state of one depth-first walk over the levels. The
// point it visits is passed down the walk beside it, so that the point
// — which visit sees, and so the heap holds — is the walk's one
// allocation while the walker stays on the stack.
type walker struct {
	x *Index
	// k is the key tuple; key components land in the point itself
	// under MapPermute (direct), in k — remapped at the leaf — otherwise.
	k      []uint64
	direct bool
	lo, hi []uint64 // key bounds, narrowed by a region walk
	region tensor.Region
	test   bool // the leaf tests region containment
	visit  func(p []uint64, slot int) bool
}

// Each implements Iterator: a depth-first walk visiting the points in
// payload (slot) order. The point slice is reused; callbacks must not
// retain it.
func (x *Index) Each(visit func(p []uint64, slot int) bool) { x.scan(nil, visit) }

// ScanRegion implements RegionScanner: the Each walk, pruned at every
// level whose key components the region bounds — every CSF level,
// GCSR's rows, BCOO's blocks, COO-sorted's leading coordinate — and
// tested for containment at the leaf unless the remap keeps every
// coordinate (then the bounds are the region).
func (x *Index) ScanRegion(r tensor.Region, visit func(p []uint64, slot int) bool) {
	if r.Dims() == len(x.shape) && len(r.Size) == len(x.shape) {
		x.scan(&r, visit)
	}
}

// scan runs one walk. The point it visits is its one allocation, since
// visit sees it; the key tuple and the key bounds live on the stack,
// the bounds admitting every key unless a region narrows them.
func (x *Index) scan(region *tensor.Region, visit func(p []uint64, slot int) bool) {
	var scratch [48]uint64
	width, p, buf := len(x.ext), make([]uint64, len(x.shape)), scratch[:]
	if len(buf) < 3*width {
		buf = make([]uint64, 3*width)
	}
	w := walker{x: x, k: buf[:width], direct: x.decl.Map == MapPermute, lo: buf[width : 2*width], hi: buf[2*width : 3*width], visit: visit}
	for j := range w.hi {
		w.hi[j] = math.MaxUint64
	}
	if region != nil {
		for i, m := range x.shape { // p is the region's last cell, clipped to the shape
			if region.Size[i] == 0 || region.Start[i] >= m {
				return
			}
			p[i] = region.Start[i] + min(region.Size[i], m-region.Start[i]) - 1
		}
		x.bounds(region.Start, p, w.lo, w.hi)
		w.region, w.test = *region, !w.direct
	}
	w.walk(0, 0, p)
}

// walk visits level l's entries under entry parent of level l-1 and
// descends, landing key components in p (or w.k) on the way. The first
// key component of an ordered level ascends, so a region walk seeks to
// its lower bound and stops past its upper one; every other component
// is filtered.
func (w *walker) walk(l int, parent uint64, p []uint64) bool {
	lv := &w.x.levels[l]
	lo, hi := lv.span(parent)
	base, min0, max0 := lo, w.lo[lv.key], w.hi[lv.key]
	if lv.ordered && min0 > 0 && hi-lo > 16 { // short runs skip below
		lo = lv.seek(w.lo[lv.key:lv.key+1], lo, hi)
	}
	dst := w.k
	if w.direct {
		dst = p
	}
	if lv.Width == 1 && !lv.Bytes && !lv.Dense { // CSF, GCS's ind, LINEAR
		slot := &dst[lv.slot]
		for i, c := range lv.crd[lo:hi] {
			if c > max0 && lv.ordered {
				break // siblings ascend
			}
			if c < min0 || c > max0 {
				continue
			}
			*slot = c
			if e := lo + uint64(i); !lv.leaf {
				if !w.walk(l+1, e, p) {
					return false
				}
			} else if (w.direct || w.remapped(p)) && !w.visit(p, int(e)) {
				return false
			}
		}
		return true
	}
	slots := w.x.dims[lv.key : lv.key+lv.Width]
	los, his := w.lo[lv.key:lv.key+lv.Width], w.hi[lv.key:lv.key+lv.Width]
	for e := lo; e < hi; e++ {
		c := e - base
		if !lv.Dense {
			c = lv.at(e, 0)
		}
		if c > max0 && lv.ordered {
			break
		}
		in := c >= min0 && c <= max0
		dst[slots[0]] = c
		for j := 1; j < len(slots) && in; j++ {
			c := lv.at(e, j)
			in = c >= los[j] && c <= his[j]
			dst[slots[j]] = c
		}
		if !in {
			continue
		}
		if !lv.leaf {
			if !w.walk(l+1, e, p) {
				return false
			}
		} else if (w.direct || w.remapped(p)) && !w.visit(p, int(e)) {
			return false
		}
	}
	return true
}

// remapped writes the point of the walk's key tuple into p and reports
// whether the region walk keeps it.
func (w *walker) remapped(p []uint64) bool {
	w.x.point(w.k, p)
	return !w.test || w.region.Contains(p)
}

// Decl returns the declaration the payload was opened with.
func (x *Index) Decl() Decl { return x.decl }

// Crd returns level l's coordinate vector (eight-byte levels).
func (x *Index) Crd(l int) []uint64 { return x.levels[l].crd }

// Pos returns level l's pointer vector into its crd, one entry per
// parent entry plus the sentinel; nil for the first level.
func (x *Index) Pos(l int) []uint64 { return x.levels[l].pos }
