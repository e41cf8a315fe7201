package store

import (
	"errors"
	"fmt"
	"sync"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/store/fragcache"
)

// Options are the store's only configuration surface: nothing reads
// the process environment. They configure the store once, and every
// tile reads the settings through the one config they share. Defaults
// are set before the options run and an option simply overwrites its
// field. Option misuse is a typed error (OptionError, matching
// ErrBadOption) surfaced by Create/Open/NewChunked instead of being
// silently accepted.

// Option configures a store at creation or open.
type Option func(*Store)

// config is the store's settings, shared by pointer with every tile:
// the file system, the organization, what the options set, and the
// reader cache and compaction gate all tiles share.
type config struct {
	fs     fsim.FS
	kind   core.Kind
	format core.Format
	codec  compress.ID // the codec a new tile writes
	obs    *obs.Registry
	// cache holds decoded fragment readers for every tile: one byte
	// budget (cacheBudget, DefaultCacheBudget unless WithReaderCache
	// says otherwise) for the whole store. nil when caching is off.
	cache       *fragcache.Cache
	cacheBudget int64
	// ckptEvery is the manifest checkpoint cadence
	// (WithManifestCheckpointEvery; <= 0 is the adaptive policy).
	ckptEvery int
	// compactAt is the fragment count at which a tile compacts itself in
	// the background; 0 is never. compactGate admits one tile's
	// background compaction at a time, so a bulk ingest that takes every
	// tile past the threshold together compacts them one after another
	// and their exports never pile up in memory at once.
	compactAt   int
	compactGate sync.Mutex
	// optErr holds the first option misuse, surfaced by the constructor.
	optErr error
}

// newConfig resolves the organization, applies the options over the
// defaults, and builds the reader cache. A tiled store's tiles compact
// in the background at defaultCompactAt fragments unless an option set
// a threshold; a flat store's only when asked.
func newConfig(fs fsim.FS, kind core.Kind, flat bool, opts []Option) (*config, error) {
	f, err := core.Get(kind)
	if err != nil {
		return nil, err
	}
	c := &config{fs: fs, kind: kind, format: f, cacheBudget: DefaultCacheBudget}
	probe := &Store{config: c}
	for _, o := range opts {
		o(probe)
	}
	if c.optErr != nil {
		return nil, c.optErr
	}
	if _, err := compress.Get(c.codec); err != nil {
		return nil, err
	}
	if !flat && c.compactAt == 0 {
		c.compactAt = defaultCompactAt
	}
	if c.cacheBudget > 0 {
		c.cache = fragcache.New(c.cacheBudget, c.obsReg)
	}
	return c, nil
}

// obsReg resolves the store's registry: the injected one if any,
// otherwise the process-wide registry (nil when observation is off —
// every obs call is a no-op then).
func (c *config) obsReg() *obs.Registry {
	if c.obs != nil {
		return c.obs
	}
	return obs.Global()
}

// takeCost drains modeled I/O cost when the FS has a cost model,
// otherwise returns zero and ok=false.
func (c *config) takeCost() (fsim.Cost, bool) {
	if cr, ok := c.fs.(fsim.CostReporter); ok {
		return cr.TakeCost(), true
	}
	return fsim.Cost{}, false
}

// ErrBadOption is the sentinel every option-misuse error matches:
//
//	if errors.Is(err, store.ErrBadOption) { ... }
var ErrBadOption = errors.New("store: invalid option")

// OptionError reports a misused store option: which option, and why its
// arguments were rejected. It matches ErrBadOption via errors.Is and is
// returned by Create, Open, and NewChunked — options themselves cannot
// fail (they run inside the constructor), so the constructor carries
// the verdict.
type OptionError struct {
	Option string // the option's name, e.g. "WithBackgroundCompaction"
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("store: invalid option %s: %s", e.Option, e.Reason)
}

func (e *OptionError) Unwrap() error { return ErrBadOption }

// recordOptErr keeps the first misuse seen while options apply.
func (c *config) recordOptErr(option, reason string) {
	if c.optErr == nil {
		c.optErr = &OptionError{Option: option, Reason: reason}
	}
}

// WithCodec compresses fragment payloads with the given codec.
func WithCodec(id compress.ID) Option {
	return func(s *Store) { s.codec = id }
}

// WithObs binds the store to a specific observability registry instead
// of the process-wide obs.Global(). The benchmark harness uses this to
// capture one store's phase breakdown in isolation.
func WithObs(r *obs.Registry) Option {
	return func(s *Store) { s.obs = r }
}

// DefaultCacheBudget is the fragment-reader cache's byte budget unless
// WithReaderCache says otherwise.
const DefaultCacheBudget = 256 << 20

// WithReaderCache sets the fragment-reader cache's byte budget, one
// budget for all the store's tiles. The cache keeps decoded fragment
// indexes (reader + values) resident so warm reads skip the file
// system entirely; see internal/store/fragcache. A budget of 0 (or
// below) disables caching.
func WithReaderCache(budget int64) Option {
	return func(s *Store) { s.cacheBudget = budget }
}

// defaultCompactAt is the fragment count at which a tiled store's tile
// compacts itself in the background unless WithBackgroundCompaction
// says otherwise: every fragment a read's window meets costs it an open
// and a merge run. Each compaction rewrites the whole tile, once per 63
// writes that meet it after the first 64. A flat store compacts in the
// background only when asked: its whole tensor would be rewritten that
// often, and its as-of versions count fragments that a compaction folds.
const defaultCompactAt = 64

// WithBackgroundCompaction makes the store compact itself: whenever a
// mutation publishes a tile snapshot holding at least minFragments
// fragments and no compaction worker is already running for it, one is
// spawned. A tiled store's tiles do so at 64 fragments without this
// option; a flat store only with it. The worker serializes with writers
// through the tile's writer lock, and with the store's other tiles
// through one compaction at a time; readers are never blocked (MVCC
// snapshots, see view.go). minFragments must be at least 2 — a
// one-fragment store is already compact. Close waits for an in-flight
// worker.
func WithBackgroundCompaction(minFragments int) Option {
	return func(s *Store) {
		if minFragments < 2 {
			s.recordOptErr("WithBackgroundCompaction", fmt.Sprintf("threshold %d (need >= 2 fragments for a compaction to exist)", minFragments))
			return
		}
		s.compactAt = minFragments
	}
}
