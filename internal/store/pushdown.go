package store

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sparseart/internal/core"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

// Compute push-down: kernels and maintenance passes that run WHERE the
// data lives instead of exporting it first. Every operation here
// acquires one MVCC read view, streams each data fragment's cached
// reader through the core streaming contract (core.Points /
// core.RegionPoints — lazy walks, no COO materialization), masks cells
// overwritten by newer fragments or covered by later tombstones, and
// feeds only the live cells to the consumer. Peak memory is O(largest
// fragment), never O(store): the only per-fragment state is a
// last-write-wins slot map that resolves duplicate points inside one
// fragment exactly the way mergeHits does.
//
// Liveness of a cell (p, slot) of data fragment fi is decided per
// fragment, which is what makes the fragments independently
// parallelizable: the cell is live iff
//
//  1. slot is the LAST occurrence of p in fi's payload order (the
//     winner mergeHits would keep for duplicate points in one write),
//  2. no later data fragment fj > fi stores p (newest fragment wins),
//  3. no tombstone with index > fi covers p.
//
// Every live cell is emitted exactly once across all fragments, so
// order-insensitive consumers (reductions, SpMV/TTV accumulation,
// chunked conversion) need no cross-fragment merge at all.

// PushReport summarizes one push-down execution.
type PushReport struct {
	// Fragments counts the data fragments actually iterated.
	Fragments int
	// Skipped counts fragments dismissed wholesale before any fetch —
	// bbox or coordinate-filter told us they cannot intersect the query.
	Skipped int
	// Cells counts live cells delivered to the consumer.
	Cells int64
	// Shadowed counts cells masked because a newer fragment (or a later
	// duplicate in the same fragment) rewrote the point.
	Shadowed int64
	// Dead counts cells masked by a later tombstone.
	Dead int64
	// Epoch is the manifest epoch the execution pinned.
	Epoch uint64
}

// Add folds another execution's report into r: a chunked store's
// tile, a router's shard. Epochs sum like the counts (a change
// counter, as Chunked.Epoch is).
func (r *PushReport) Add(o *PushReport) {
	r.Fragments += o.Fragments
	r.Skipped += o.Skipped
	r.Cells += o.Cells
	r.Shadowed += o.Shadowed
	r.Dead += o.Dead
	r.Epoch += o.Epoch
}

// fragPushStats accumulates one worker's masking counts.
type fragPushStats struct {
	frags    int
	cells    int64
	shadowed int64
	dead     int64
}

// errStopPush is the sentinel liveFragment returns when the consumer's
// visit callback stops the walk; it never escapes the package.
var errStopPush = errors.New("store: push-down stopped by consumer")

// pushCandidates lists the data-fragment indices a push-down over the
// pinned view must iterate, plus the count it could dismiss without a
// fetch. With a region the spatial index prunes by bounding box and the
// per-fragment coordinate filters dismiss bbox false positives (both
// exact-negative, so no live cell is ever missed). Without a region
// every data fragment qualifies.
func (s *Store) pushCandidates(v *readView, region *tensor.Region) (data []int, skipped int) {
	if region == nil {
		for i := range v.frags {
			if v.frags[i].nnz > 0 {
				data = append(data, i)
			}
		}
		return data, 0
	}
	cands := v.overlapping(region.BBox(), len(v.frags))
	for _, fi := range cands {
		fr := &v.frags[fi]
		if fr.nnz == 0 {
			continue
		}
		if fr.filter != nil && !fr.filter.MayOverlapRegion(*region) {
			skipped++
			continue
		}
		data = append(data, fi)
	}
	return data, skipped
}

// shadowSet lists the fragments published after fi whose bounding box
// overlaps fi's — the only fragments that can mask fi's cells — split
// into later data fragments and later tombstones.
func shadowSet(v *readView, fi int) (datas []int, tombs []tombstoneRef) {
	fr := &v.frags[fi]
	for _, sj := range v.overlapping(fr.bbox, len(v.frags)) {
		if sj <= fi {
			continue
		}
		sf := &v.frags[sj]
		if sf.tomb {
			tombs = append(tombs, tombstoneRef{idx: sj, region: sf.tombRegion})
		} else {
			datas = append(datas, sj)
		}
	}
	return datas, tombs
}

// liveFragment streams the live cells of data fragment fi in payload
// order. region, when non-nil, restricts the walk (CSF prunes whole
// subtrees; other formats filter). Shadow fragments are fetched lazily
// — a fragment whose bbox overlaps but whose points never collide costs
// at most filter probes. Returns errStopPush when visit stops the walk.
func (s *Store) liveFragment(v *readView, fi int, region *tensor.Region, visit func(p []uint64, val float64) bool, st *fragPushStats) error {
	fr := v.frags[fi]
	e, err := s.fetchFragment(nil, fr, &ReadReport{})
	if err != nil {
		return err
	}
	seq, ok := streamReader(e.Reader, region)
	if !ok {
		return fmt.Errorf("store: %v reader cannot stream", s.curKind())
	}
	st.frags++

	// Pass 1: last write wins inside the fragment. mergeHits keeps the
	// final payload-order occurrence of a duplicated point; Lookup can
	// return an earlier slot, so the winner map — not Lookup — is what
	// keeps push-down and export byte-agreeing on degenerate inputs.
	winner := make(map[uint64]int, e.Reader.NNZ())
	for p, slot := range seq {
		winner[s.lin.Linearize(p)] = slot
	}

	shadowDatas, shadowTombs := shadowSet(v, fi)
	shadowReaders := make(map[int]core.Reader, len(shadowDatas))

	seq2, _ := streamReader(e.Reader, region)
	for p, slot := range seq2 {
		if winner[s.lin.Linearize(p)] != slot {
			st.shadowed++
			continue
		}
		masked := false
		for _, sj := range shadowDatas {
			sf := &v.frags[sj]
			if !sf.bbox.Contains(p) {
				continue
			}
			if sf.filter != nil && !sf.filter.MayContainPoint(p) {
				continue
			}
			sr, ok := shadowReaders[sj]
			if !ok {
				se, err := s.fetchFragment(nil, v.frags[sj], &ReadReport{})
				if err != nil {
					return err
				}
				sr = se.Reader
				shadowReaders[sj] = sr
			}
			if _, ok := sr.Lookup(p); ok {
				masked = true
				break
			}
		}
		if masked {
			st.shadowed++
			continue
		}
		for _, tb := range shadowTombs {
			if tb.region.Contains(p) {
				masked = true
				break
			}
		}
		if masked {
			st.dead++
			continue
		}
		st.cells++
		if !visit(p, e.Values[slot]) {
			return errStopPush
		}
	}
	return nil
}

// streamReader picks the walk: region-restricted when a region is
// given, full otherwise.
func streamReader(r core.Reader, region *tensor.Region) (core.PointSeq, bool) {
	if region != nil {
		return core.RegionPoints(r, *region)
	}
	return core.Points(r)
}

// ScanLive streams every live cell of the store (or of a region, when
// non-nil) to visit, fragment by fragment in manifest order, each
// fragment in payload order. The walk is serial and deterministic —
// Convert builds its chunks on it — and holds O(largest fragment)
// memory. Returning false from visit stops the walk early (the report
// then covers the visited prefix). Cancellation is checked before each
// fragment's walk, so a deadline stops the scan at a fragment boundary.
func (s *Store) ScanLive(ctx context.Context, region *tensor.Region, visit func(p []uint64, val float64) bool) (*PushReport, error) {
	v := s.acquireView()
	defer v.release()
	rep := &PushReport{Epoch: v.epoch}
	err := s.scanLiveView(ctx, v, region, visit, rep)
	if err != nil && err != errStopPush {
		return nil, err
	}
	s.pushCounters("scan", rep)
	return rep, nil
}

// scanLiveView is ScanLive's body over an already-pinned view.
func (s *Store) scanLiveView(ctx context.Context, v *readView, region *tensor.Region, visit func(p []uint64, val float64) bool, rep *PushReport) error {
	data, skipped := s.pushCandidates(v, region)
	rep.Skipped = skipped
	var st fragPushStats
	defer func() {
		rep.Fragments += st.frags
		rep.Cells += st.cells
		rep.Shadowed += st.shadowed
		rep.Dead += st.dead
	}()
	for _, fi := range data {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.liveFragment(v, fi, region, visit, &st); err != nil {
			return err
		}
	}
	return nil
}

// pushCounters publishes a push-down execution's totals.
func (s *Store) pushCounters(op string, rep *PushReport) {
	reg := s.obsReg()
	kind := s.curKind().String()
	reg.Counter("store.pushdown.count", "kind", kind, "op", op).Inc()
	reg.Counter("store.pushdown.fragments", "kind", kind, "op", op).Add(int64(rep.Fragments))
	reg.Counter("store.pushdown.skipped", "kind", kind, "op", op).Add(int64(rep.Skipped))
	reg.Counter("store.pushdown.cells", "kind", kind, "op", op).Add(rep.Cells)
	reg.Counter("store.pushdown.shadowed", "kind", kind, "op", op).Add(rep.Shadowed)
	reg.Counter("store.pushdown.dead", "kind", kind, "op", op).Add(rep.Dead)
}

// pushRun is the parallel push-down executor: data fragments fan out
// across a psort-bounded worker pool, each worker folds its fragments'
// live cells into a private accumulator, and the per-worker partials
// merge under one mutex when the feed drains. Merge order is
// nondeterministic, so float results can differ in rounding from a
// serial pass — exactly like any parallel reduction; integer-valued
// data is exact.
//
// Cancellation is checked per fragment: once ctx reports done, workers
// drain the remaining feed without touching it and the run returns
// ctx.Err().
func pushRun[A any](ctx context.Context, s *Store, op string, workers int, region *tensor.Region,
	newAcc func() A, visit func(acc A, p []uint64, val float64), merge func(dst, src A)) (A, *PushReport, error) {
	var zero A
	v := s.acquireView()
	defer v.release()
	rep := &PushReport{Epoch: v.epoch}
	data, skipped := s.pushCandidates(v, region)
	rep.Skipped = skipped
	result := newAcc()
	if len(data) == 0 {
		s.pushCounters(op, rep)
		return result, rep, nil
	}
	workers = psort.Workers(workers)
	if workers > len(data) {
		workers = len(data)
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	feed := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := newAcc()
			var st fragPushStats
			for fi := range feed {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if !stop {
					if err := ctx.Err(); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						stop = true
					}
				}
				if stop {
					continue
				}
				err := s.liveFragment(v, fi, region, func(p []uint64, val float64) bool {
					visit(local, p, val)
					return true
				}, &st)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			merge(result, local)
			rep.Fragments += st.frags
			rep.Cells += st.cells
			rep.Shadowed += st.shadowed
			rep.Dead += st.dead
			mu.Unlock()
		}()
	}
	for _, fi := range data {
		feed <- fi
	}
	close(feed)
	wg.Wait()
	if firstErr != nil {
		return zero, nil, firstErr
	}
	s.pushCounters(op, rep)
	return result, rep, nil
}

// The kernel bodies Kernel dispatches to. Each is pushRun with its own
// accumulator; workers < 1 means all cores, and cancellation stops
// fragment work at the next fragment boundary.

// addVec is the merge step of every dense-vector accumulator.
func addVec(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// sumCell and countCell are reduceKernel's two folds: the sum of live
// values, and the live-cell count (in a float64 — exact to 2⁵³).
func sumCell(acc *float64, _ []uint64, val float64) { *acc += val }
func countCell(acc *float64, _ []uint64, _ float64) { *acc++ }

// reduceKernel folds the live cells (of a region, when non-nil) into
// one scalar. The region-restricted walk descends only intersecting
// CSF subtrees, and non-overlapping fragments are skipped by the
// spatial index and coordinate filters before any fetch.
func (s *Store) reduceKernel(ctx context.Context, op KernelOp, workers int, region *tensor.Region, fold func(acc *float64, p []uint64, val float64)) (*KernelResult, error) {
	sum, rep, err := pushRun(ctx, s, op.String(), workers, region,
		func() *float64 { return new(float64) }, fold,
		func(dst, src *float64) { *dst += *src })
	if err != nil {
		return nil, err
	}
	return &KernelResult{Values: []float64{*sum}, Report: rep}, nil
}

// vectorKernel folds every live cell into a dense vector of n entries.
func (s *Store) vectorKernel(ctx context.Context, op KernelOp, workers, n int, visit func(acc []float64, p []uint64, val float64)) (*KernelResult, error) {
	out, rep, err := pushRun(ctx, s, op.String(), workers, nil,
		func() []float64 { return make([]float64, n) }, visit, addVec)
	if err != nil {
		return nil, err
	}
	return &KernelResult{Values: out, Report: rep}, nil
}

// spmv computes y = A·x over the stored 2D tensor without exporting it:
// each fragment's live cells accumulate y[i] += A[i,j]·x[j] into a
// per-worker partial, merged by vector addition. x must have length
// Shape[1]; y has length Shape[0].
func (s *Store) spmv(ctx context.Context, x []float64, workers int) (*KernelResult, error) {
	if s.shape.Dims() != 2 {
		return nil, fmt.Errorf("store: %w: SpMV needs a 2-dim store, got %d dims", ErrBadRequest, s.shape.Dims())
	}
	if uint64(len(x)) != s.shape[1] {
		return nil, fmt.Errorf("store: %w: x has %d entries for %d columns", ErrShapeMismatch, len(x), s.shape[1])
	}
	return s.vectorKernel(ctx, KernelSpMV, workers, int(s.shape[0]),
		func(y []float64, p []uint64, val float64) { y[p[0]] += val * x[p[1]] })
}

// nnzPerSlice counts live cells per index of one mode: out[k] is the
// number of live cells with coordinate k along that mode — the slice
// histogram load balancers and format advisors want.
func (s *Store) nnzPerSlice(ctx context.Context, mode, workers int) (*KernelResult, error) {
	if mode < 0 || mode >= s.shape.Dims() {
		return nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, mode, s.shape.Dims())
	}
	return s.vectorKernel(ctx, KernelNNZPerSlice, workers, int(s.shape[mode]),
		func(acc []float64, p []uint64, _ float64) { acc[p[mode]]++ })
}

// sumRegion reduces a rectangular region to the sum of its live values.
func (s *Store) sumRegion(ctx context.Context, region *tensor.Region, workers int) (*KernelResult, error) {
	if region == nil {
		return nil, fmt.Errorf("store: %w: kernel %v needs a region", ErrBadRequest, KernelSumRegion)
	}
	if region.Dims() != s.shape.Dims() {
		return nil, fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, region.Dims(), s.shape.Dims())
	}
	if _, err := tensor.NewRegion(s.shape, region.Start, region.Size); err != nil {
		return nil, err
	}
	return s.reduceKernel(ctx, KernelSumRegion, workers, region, sumCell)
}

// ttv contracts the stored tensor with a vector along one mode,
// Y[i_0,…,î_mode,…] = Σ_k T[…,k,…]·v[k], returning the dense result in
// row-major order over the remaining modes together with its shape —
// the in-store counterpart of linalg.Tensor.TTV.
func (s *Store) ttv(ctx context.Context, mode int, vec []float64, workers int) (*KernelResult, error) {
	d := s.shape.Dims()
	if mode < 0 || mode >= d {
		return nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, mode, d)
	}
	if uint64(len(vec)) != s.shape[mode] {
		return nil, fmt.Errorf("store: %w: vector has %d entries for extent %d", ErrShapeMismatch, len(vec), s.shape[mode])
	}
	outShape := make(tensor.Shape, 0, d-1)
	for i, m := range s.shape {
		if i != mode {
			outShape = append(outShape, m)
		}
	}
	if len(outShape) == 0 {
		outShape = tensor.Shape{1}
	}
	lin, err := tensor.NewLinearizer(outShape, tensor.RowMajor)
	if err != nil {
		return nil, err
	}
	vol, _ := outShape.Volume()
	// Each worker's accumulator carries its own coordinate scratch so
	// the hot loop allocates nothing and shares nothing.
	type ttvAcc struct {
		out []float64
		q   []uint64
	}
	acc, rep, err := pushRun(ctx, s, KernelTTV.String(), workers, nil,
		func() *ttvAcc { return &ttvAcc{out: make([]float64, vol), q: make([]uint64, len(outShape))} },
		func(a *ttvAcc, p []uint64, val float64) {
			if d == 1 {
				a.out[0] += val * vec[p[0]]
				return
			}
			k := 0
			for i, c := range p {
				if i == mode {
					continue
				}
				a.q[k] = c
				k++
			}
			a.out[lin.Linearize(a.q)] += val * vec[p[mode]]
		},
		func(dst, src *ttvAcc) { addVec(dst.out, src.out) })
	if err != nil {
		return nil, err
	}
	return &KernelResult{Values: acc.out, Shape: outShape, Report: rep}, nil
}
