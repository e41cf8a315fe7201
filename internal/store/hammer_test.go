package store

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// The concurrent hammer: N readers, M writers, one region deleter, and
// one compactor pound a single store under the race detector. Readers
// verify every result differentially against an epoch-indexed oracle —
// a read pinned at epoch E must return exactly the oracle's state at E
// restricted to the probed points or region, whatever the writers and
// the compactor did in the meantime — under every store configuration
// (storeConfigs). Run it with -race; the CI race-hammer tier does
// (scripts/ci.sh).

// hammerOracle records the store's logical contents after every
// mutation, keyed by the epoch the mutation published. Mutators hold mu
// ACROSS the store call and the oracle apply: a reader that observes a
// view at epoch >= E can only lock mu after the mutator that published
// E has recorded it, so stateAt(E) is always defined by the time any
// reader asks. Snapshots are clone-on-apply and immutable once
// appended; stateAt's result may be read after mu is released.
type hammerOracle struct {
	mu     sync.Mutex
	epochs []uint64             // ascending; epochs[0] == 0 (empty store)
	snaps  []map[uint64]float64 // snaps[i] is the state as of epochs[i]
}

func newHammerOracle() *hammerOracle {
	return &hammerOracle{epochs: []uint64{0}, snaps: []map[uint64]float64{{}}}
}

// appendLocked records the state after a mutation published at epoch.
// The caller holds mu and held it across the store mutation itself.
func (o *hammerOracle) appendLocked(epoch uint64, mutate func(map[uint64]float64)) {
	last := o.snaps[len(o.snaps)-1]
	next := make(map[uint64]float64, len(last)+8)
	for k, v := range last {
		next[k] = v
	}
	mutate(next)
	o.epochs = append(o.epochs, epoch)
	o.snaps = append(o.snaps, next)
}

// stateAt returns the oracle state at the largest mutation epoch <= e.
// Epochs between mutations belong to compactions, which change the
// fragment layout but not the logical contents.
func (o *hammerOracle) stateAt(e uint64) map[uint64]float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	i := sort.Search(len(o.epochs), func(i int) bool { return o.epochs[i] > e }) - 1
	return o.snaps[i]
}

// checkHammerResult verifies one read result against the oracle state
// at the read's pinned epoch, restricted to the probed domain: every
// returned point must carry the oracle's value, and every oracle point
// inside the domain must be returned.
func checkHammerResult(t *testing.T, op string, res *Result, rep *ReadReport,
	state map[uint64]float64, lin *tensor.Linearizer, inDomain func(addr uint64) bool) {
	t.Helper()
	got := make(map[uint64]float64, res.Coords.Len())
	for i := 0; i < res.Coords.Len(); i++ {
		got[lin.Linearize(res.Coords.At(i))] = res.Values[i]
	}
	for addr, v := range got {
		if !inDomain(addr) {
			t.Errorf("%s@%d: returned point %d outside the probed domain", op, rep.Epoch, addr)
			return
		}
		if want, ok := state[addr]; !ok || want != v {
			t.Errorf("%s@%d: point %d = %v, oracle says %v (present=%v)", op, rep.Epoch, addr, v, want, ok)
			return
		}
	}
	for addr := range state {
		if !inDomain(addr) {
			continue
		}
		if _, ok := got[addr]; !ok {
			t.Errorf("%s@%d: point %d missing (oracle has %v)", op, rep.Epoch, addr, state[addr])
			return
		}
	}
}

// randomRegion picks a small region inside shape.
func randomRegion(t testing.TB, rng *rand.Rand, shape tensor.Shape, maxSize uint64) tensor.Region {
	t.Helper()
	start := make([]uint64, shape.Dims())
	size := make([]uint64, shape.Dims())
	for d := 0; d < shape.Dims(); d++ {
		start[d] = uint64(rng.Int63n(int64(shape[d])))
		max := shape[d] - start[d]
		if max > maxSize {
			max = maxSize
		}
		size[d] = 1 + uint64(rng.Int63n(int64(max)))
	}
	region, err := tensor.NewRegion(shape, start, size)
	if err != nil {
		t.Fatal(err)
	}
	return region
}

func TestConcurrentHammer(t *testing.T) {
	eachStoreConfig(t, testConcurrentHammer)
}

func testConcurrentHammer(t *testing.T, opts []Option) {
	shape := tensor.Shape{16, 16}
	writers, readers := 2, 3
	writesPerWriter, deletes := 30, 12
	if testing.Short() {
		writesPerWriter, deletes = 10, 4
	}
	for _, kind := range core.PaperKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape, opts...)
			if err != nil {
				t.Fatal(err)
			}
			lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			oracle := newHammerOracle()
			var done atomic.Bool
			var mutWG, compWG, readWG sync.WaitGroup

			// Writers: each write commits under the oracle lock so the
			// published epoch is recorded before any reader can consult it.
			for w := 0; w < writers; w++ {
				mutWG.Add(1)
				go func(seed int64) {
					defer mutWG.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < writesPerWriter; i++ {
						c, vals := randomPoints(rng, shape, 6)
						oracle.mu.Lock()
						rep, err := st.Write(c, vals)
						if err != nil {
							oracle.mu.Unlock()
							t.Errorf("write: %v", err)
							return
						}
						oracle.appendLocked(rep.Epoch, func(m map[uint64]float64) {
							for j := 0; j < c.Len(); j++ {
								m[lin.Linearize(c.At(j))] = vals[j]
							}
						})
						oracle.mu.Unlock()
					}
				}(int64(100 + w))
			}

			// Deleter: log-structured tombstones over small random regions.
			mutWG.Add(1)
			go func() {
				defer mutWG.Done()
				rng := rand.New(rand.NewSource(7))
				p := make([]uint64, shape.Dims())
				for i := 0; i < deletes; i++ {
					region := randomRegion(t, rng, shape, 3)
					oracle.mu.Lock()
					rep, err := st.DeleteRegion(region)
					if err != nil {
						oracle.mu.Unlock()
						t.Errorf("delete: %v", err)
						return
					}
					oracle.appendLocked(rep.Epoch, func(m map[uint64]float64) {
						for addr := range m {
							lin.Delinearize(addr, p)
							if region.Contains(p) {
								delete(m, addr)
							}
						}
					})
					oracle.mu.Unlock()
					time.Sleep(time.Millisecond)
				}
			}()

			// Compactor: consolidates continuously. Compaction publishes
			// epochs but never changes logical contents, so it needs no
			// oracle entry — stateAt falls back to the newest mutation.
			compWG.Add(1)
			go func() {
				defer compWG.Done()
				for !done.Load() {
					if _, err := st.Compact(); err != nil {
						t.Errorf("compact: %v", err)
						return
					}
					time.Sleep(500 * time.Microsecond)
				}
			}()

			// Readers: rotate through every read path, verifying each
			// result against the oracle at the report's pinned epoch.
			for r := 0; r < readers; r++ {
				readWG.Add(1)
				go func(seed int64) {
					defer readWG.Done()
					rng := rand.New(rand.NewSource(seed))
					p := make([]uint64, shape.Dims())
					for iter := 0; !done.Load(); iter++ {
						switch iter % 5 {
						case 0, 1: // point probes
							probe, _ := randomPoints(rng, shape, 10)
							probed := make(map[uint64]bool, probe.Len())
							for i := 0; i < probe.Len(); i++ {
								probed[lin.Linearize(probe.At(i))] = true
							}
							res, rep, err := readProbe(st, probe)
							if err != nil {
								t.Errorf("Read: %v", err)
								return
							}
							checkHammerResult(t, "Read", res, rep, oracle.stateAt(rep.Epoch), lin,
								func(addr uint64) bool { return probed[addr] })
						default: // region reads: ReadRegion, ReadRegionScan, ReadRegionAuto
							region := randomRegion(t, rng, shape, 8)
							var res *Result
							var rep *ReadReport
							var err error
							var op string
							switch iter % 5 {
							case 2:
								op = "ReadRegion"
								res, rep, err = readProbe(st, region.Coords())
							case 3:
								op = "ReadRegionScan"
								res, rep, err = readRegion(st, region, StrategyScan)
							case 4:
								op = "ReadRegionAuto"
								res, rep, err = readRegion(st, region, StrategyAuto)
							}
							if err != nil {
								t.Errorf("%s: %v", op, err)
								return
							}
							checkHammerResult(t, op, res, rep, oracle.stateAt(rep.Epoch), lin,
								func(addr uint64) bool {
									lin.Delinearize(addr, p)
									return region.Contains(p)
								})
						}
						if t.Failed() {
							return
						}
					}
				}(int64(200 + r))
			}

			mutWG.Wait() // writers and the deleter are done
			done.Store(true)
			readWG.Wait()
			compWG.Wait()

			// Final differential check: the store's full contents must
			// equal the oracle's newest snapshot exactly.
			full, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{16, 16})
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := readProbe(st, full.Coords())
			if err != nil {
				t.Fatal(err)
			}
			oracle.mu.Lock()
			final := oracle.snaps[len(oracle.snaps)-1]
			oracle.mu.Unlock()
			checkHammerResult(t, "final", res, rep, final, lin, func(uint64) bool { return true })
			if res.Coords.Len() != len(final) {
				t.Fatalf("final read: %d points, oracle has %d", res.Coords.Len(), len(final))
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
