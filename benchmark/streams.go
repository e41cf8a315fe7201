package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// opStats is what the traced run adds up from the reports that come
// back with each reply (the store's own account of the request).
type opStats struct {
	queries, fragments, candidates, filterSkipped int64
	kernels, kernelFragments, kernelSkipped       int64
}

// addRead books one query's report; a nil receiver (the untraced run)
// or a nil report books nothing.
func (st *opStats) addRead(rep *store.ReadReport) {
	if st == nil || rep == nil {
		return
	}
	st.queries++
	st.fragments += int64(rep.Fragments)
	st.candidates += int64(rep.Candidates)
	st.filterSkipped += int64(rep.FilterSkipped)
}

// probeStream issues 1-point probes and checks each reply exactly.
// Tiles are drawn Zipf(1.1) over a seeded ranking; seven probes in
// eight aim at a stored cell of the tile, the eighth at a random cell
// (usually empty), so both answers are exercised.
type probeStream struct {
	cl    *serve.Client
	sc    *scale
	o     *oracle
	rng   *rand.Rand
	zipf  *rand.Zipf
	rank  []int      // Zipf rank → tile
	cells [][]uint64 // tile → stored linear addresses
	mut   *ingestState
	probe *tensor.Coords
	stats *opStats
	res   *store.Result
	rep   *store.ReadReport
	addr  uint64
	want  uint32 // write owning the cell when the probe was chosen
	acked uint32 // newest acknowledged write at that time (ingest_mixed)
}

func newProbeStream(cl *serve.Client, sc *scale, o *oracle, cells [][]uint64, seed uint64) *probeStream {
	rng := rand.New(rand.NewSource(int64(mix64(seed))))
	_, ntiles := sc.tiles()
	// The ranking depends on the workload seed only, so every client
	// agrees on which tiles are popular.
	rank := rand.New(rand.NewSource(int64(mix64(seed >> 8)))).Perm(ntiles)
	probe := tensor.NewCoords(len(sc.Shape), 1)
	probe.Append(make([]uint64, len(sc.Shape))...)
	return &probeStream{
		cl: cl, sc: sc, o: o, rng: rng, rank: rank, cells: cells, probe: probe,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(ntiles-1)),
	}
}

func (s *probeStream) next() {
	p := s.probe.At(0)
	if s.mut != nil {
		s.acked = s.mut.acked.Load()
		s.mut.pick(s.rng, p)
	} else {
		t := s.rank[s.zipf.Uint64()]
		if cells := s.cells[t]; len(cells) > 0 && s.rng.Intn(8) != 0 {
			s.o.lin.Delinearize(cells[s.rng.Intn(len(cells))], p)
		} else {
			origin := s.sc.tileOrigin(t)
			for d := range p {
				p[d] = origin[d] + uint64(s.rng.Int63n(int64(s.sc.Tile[d])))
			}
		}
	}
	s.addr, s.want = s.o.lookup(p)
}

func (s *probeStream) do(ctx context.Context) error {
	var err error
	s.res, s.rep, err = s.cl.Query(ctx, store.QueryRequest{Probe: s.probe, AsOf: store.AsOfLatest})
	return err
}

func (s *probeStream) check(err error) bool {
	if err != nil {
		return false
	}
	s.stats.addRead(s.rep)
	n := s.res.Coords.Len()
	if s.want == 0 && s.mut == nil {
		return n == 0
	}
	if n != 1 || len(s.res.Values) != 1 || s.o.lin.Linearize(s.res.Coords.At(0)) != s.addr {
		return false
	}
	v := s.res.Values[0]
	if v == cellValue(s.addr, s.want) {
		return true
	}
	// ingest_mixed: the cell may have been rewritten by a call that was
	// not yet acknowledged when the probe was chosen. Such a value names
	// a write past that frontier and no later than the newest one sent.
	if s.mut == nil {
		return false
	}
	g := writeOf(v)
	return g > s.acked && g <= s.mut.issued.Load() && v == cellValue(s.addr, g)
}

// regionStream reads uniformly placed cubic windows with StrategyAuto
// and checks each reply by count and order-independent checksum.
type regionStream struct {
	cl     *serve.Client
	o      *oracle
	rng    *rand.Rand
	stats  *opStats
	region tensor.Region
	shape  tensor.Shape
	res    *store.Result
	rep    *store.ReadReport
}

func newRegionStream(cl *serve.Client, sc *scale, o *oracle, edge uint64, seed uint64) *regionStream {
	size := make([]uint64, len(sc.Shape))
	for d := range size {
		size[d] = edge
	}
	return &regionStream{
		cl: cl, o: o, rng: rand.New(rand.NewSource(int64(mix64(seed)))), shape: sc.Shape,
		region: tensor.Region{Start: make([]uint64, len(sc.Shape)), Size: size},
	}
}

// next moves the window to a uniformly drawn position.
func (s *regionStream) next() {
	for d := range s.region.Start {
		s.region.Start[d] = uint64(s.rng.Int63n(int64(s.shape[d] - s.region.Size[d] + 1)))
	}
}

func (s *regionStream) do(ctx context.Context) error {
	var err error
	s.res, s.rep, err = s.cl.Query(ctx, store.QueryRequest{Region: &s.region, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto})
	return err
}

func (s *regionStream) check(err error) bool {
	if err != nil {
		return false
	}
	s.stats.addRead(s.rep)
	if len(s.res.Values) != s.res.Coords.Len() {
		return false
	}
	want := s.o.region(s.region)
	got := s.o.digestResult(s.res.Coords, s.res.Values)
	return got.count == want.count && got.check == want.check
}

// kernelStream sums uniformly placed cubic windows inside the store
// (KernelSumRegion) and checks the sum to 1e-9 relative.
type kernelStream struct {
	regionStream
	out *store.KernelResult
}

func newKernelStream(cl *serve.Client, sc *scale, o *oracle, seed uint64) *kernelStream {
	return &kernelStream{regionStream: *newRegionStream(cl, sc, o, sc.KernelEdge, seed)}
}

func (s *kernelStream) do(ctx context.Context) error {
	var err error
	s.out, err = s.cl.Kernel(ctx, store.KernelRequest{Op: store.KernelSumRegion, Region: &s.region})
	return err
}

func (s *kernelStream) check(err error) bool {
	if err != nil {
		return false
	}
	if s.stats != nil && s.out.Report != nil {
		s.stats.kernels++
		s.stats.kernelFragments += int64(s.out.Report.Fragments)
		s.stats.kernelSkipped += int64(s.out.Report.Skipped)
	}
	return len(s.out.Values) == 1 && closeTo(s.out.Values[0], s.o.region(s.region).sum)
}

// ingestState is what ingest_mixed's writer shares with its reader:
// the newest write sent, the newest acknowledged, and where the
// acknowledged batches went, so the reader probes only cells the store
// has promised to hold.
type ingestState struct {
	sc     *scale
	pool   []*tensor.Coords
	band   tensor.Region
	issued atomic.Uint32
	acked  atomic.Uint32
	points atomic.Int64 // points acknowledged so far

	mu  sync.Mutex
	log []placed // acknowledged batches, oldest first
}

// placed is one acknowledged batch: pool set set shifted to tile tile.
type placed struct{ tile, set int32 }

// pick draws a cell of an acknowledged batch outside the delete band.
func (st *ingestState) pick(rng *rand.Rand, p []uint64) {
	for {
		st.mu.Lock()
		b := st.log[rng.Intn(len(st.log))]
		st.mu.Unlock()
		set := st.pool[b.set]
		org := st.sc.tileOrigin(int(b.tile))
		q := set.At(rng.Intn(set.Len()))
		for d := range p {
			p[d] = org[d] + q[d]
		}
		if !st.band.Contains(p) {
			return
		}
	}
}

// ingestStream is ingest_mixed's writer: each call is a WriteBatch of
// IngestBatches tile-local batches, each aimed at a uniformly drawn
// tile (so the tiles reach their compaction threshold at different
// times and the store's size moves smoothly), and every DeleteEvery-th
// call a DeleteRegion of the reserved band. All of a call's points
// carry that call's write number.
type ingestStream struct {
	cl      *serve.Client
	st      *ingestState
	o       *oracle
	rng     *rand.Rand
	calls   int
	placed  int // batches aimed so far
	del     bool
	batches []store.Batch
	where   []placed
	reps    []*store.WriteReport
	rep     *store.WriteReport
}

func newIngestStream(cl *serve.Client, st *ingestState, o *oracle, seed uint64) *ingestStream {
	s := &ingestStream{cl: cl, st: st, o: o, rng: rand.New(rand.NewSource(int64(mix64(seed))))}
	dims := len(st.sc.Shape)
	for i := 0; i < st.sc.IngestBatches; i++ {
		s.batches = append(s.batches, store.Batch{Coords: tensor.NewCoords(dims, st.sc.IngestNNZ*2)})
	}
	s.where = make([]placed, st.sc.IngestBatches)
	return s
}

func (s *ingestStream) next() {
	s.calls++
	g := s.st.issued.Load() + 1
	s.del = s.calls%s.st.sc.DeleteEvery == 0
	if !s.del {
		_, ntiles := s.st.sc.tiles()
		for i := range s.batches {
			set, tile := s.rng.Intn(len(s.st.pool)), s.rng.Intn(ntiles)
			if s.placed < ntiles {
				// The first batches visit every tile in turn, so that all
				// tiles exist once set-up has primed the store: the seed's
				// Chunked store races on its tile map when a write creates
				// a tile beside a read.
				tile = s.placed
			}
			s.placed++
			s.where[i] = placed{tile: int32(tile), set: int32(set)}
			org := s.st.sc.tileOrigin(tile)
			src := s.st.pool[set]
			dims := src.Dims()
			flat := append(s.batches[i].Coords.Flat()[:0], src.Flat()...)
			for k := range flat {
				flat[k] += org[k%dims]
			}
			// FromFlat only fails on a length that is no multiple of dims.
			s.batches[i].Coords, _ = tensor.FromFlat(dims, flat)
			if cap(s.batches[i].Values) < src.Len() {
				s.batches[i].Values = make([]float64, src.Len())
			}
			s.batches[i].Values = s.batches[i].Values[:src.Len()]
			s.o.fill(s.batches[i].Coords, s.batches[i].Values, g)
		}
	}
	s.st.issued.Store(g)
}

func (s *ingestStream) do(ctx context.Context) error {
	var err error
	if s.del {
		s.rep, err = s.cl.DeleteRegion(ctx, s.st.band)
	} else {
		s.reps, err = s.cl.WriteBatch(ctx, s.batches, 0)
	}
	return err
}

// check also publishes the acknowledged call to the oracle and the
// reader; a failed call leaves the oracle as it was.
func (s *ingestStream) check(err error) bool {
	if err != nil {
		return false
	}
	g := s.st.issued.Load()
	if s.del {
		s.o.deleteRegion(s.st.band)
		s.st.acked.Store(g)
		return s.rep != nil
	}
	// One report a batch, together accounting for every point. They are
	// not compared pairwise: the shards answer in tile order, not in the
	// caller's batch order.
	sent, stored := 0, 0
	for i := range s.batches {
		s.o.apply(s.batches[i].Coords, g)
		sent += s.batches[i].Coords.Len()
	}
	for _, rep := range s.reps {
		if rep != nil {
			stored += rep.NNZ
		}
	}
	s.st.points.Add(int64(sent))
	ok := len(s.reps) == len(s.batches) && stored == sent
	s.st.mu.Lock()
	s.st.log = append(s.st.log, s.where...)
	s.st.mu.Unlock()
	s.st.acked.Store(g)
	return ok
}
