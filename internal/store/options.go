package store

import (
	"errors"
	"fmt"

	"sparseart/internal/store/fragcache"
)

// Options are the store's only configuration surface: nothing reads
// the process environment. Defaults are set before the options run and
// an option simply overwrites its field. Option misuse is a typed error
// (OptionError, matching ErrBadOption) surfaced by Create/Open/NewChunked
// instead of being silently accepted.

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
func (s *Store) recordOptErr(option, reason string) {
	if s.optErr == nil {
		s.optErr = &OptionError{Option: option, Reason: reason}
	}
}

// applyOptions sets the defaults, runs opts over them, and validates
// the resulting set as a whole. Create and Open configure the store
// through it; NewChunked runs it on a probe store so misuse is rejected
// before any tile exists.
func (s *Store) applyOptions(opts []Option) error {
	s.cacheBudget = DefaultCacheBudget
	for _, o := range opts {
		o(s)
	}
	if s.optErr != nil {
		return s.optErr
	}
	// A shared cache was created with its budget; a private budget
	// beside it (anything but the default a store starts from) is a
	// contradiction, whichever option came first.
	if s.sharedCache != nil && s.cacheBudget != DefaultCacheBudget {
		return &OptionError{
			Option: "WithSharedCache",
			Reason: "conflicts with WithReaderCache: the shared cache already carries its byte budget",
		}
	}
	if s.autoReorg && s.bgMinFrags <= 0 {
		return &OptionError{
			Option: "WithAutoReorg",
			Reason: "requires WithBackgroundCompaction: auto re-organization rides the background compaction trigger",
		}
	}
	return nil
}

// WithSharedCache makes the store resolve fragments through an
// externally owned reader cache instead of creating its own. Every
// store handed the same cache budgets against one pool — this is how
// the tiles of a Chunked store share a single byte budget (NewChunked
// wires it automatically; pass it explicitly to share a cache across
// independent stores or several Chunked stores). Mutually exclusive
// with WithReaderCache: the shared cache was created with its budget.
func WithSharedCache(c *fragcache.Cache) Option {
	return func(s *Store) {
		if c == nil {
			s.recordOptErr("WithSharedCache", "nil cache (disable caching with WithReaderCache(0))")
			return
		}
		s.sharedCache = c
	}
}

// WithBackgroundCompaction makes the store compact itself: whenever a
// mutation publishes a snapshot holding at least minFragments
// fragments and no compaction worker is already running, one is
// spawned. The worker serializes with writers through the writer lock;
// readers are never blocked (MVCC snapshots, see view.go). minFragments
// must be at least 2 — a one-fragment store is already compact. Close
// waits for an in-flight worker.
func WithBackgroundCompaction(minFragments int) Option {
	return func(s *Store) {
		if minFragments < 2 {
			s.recordOptErr("WithBackgroundCompaction", fmt.Sprintf("threshold %d (need >= 2 fragments for a compaction to exist)", minFragments))
			return
		}
		s.bgMinFrags = minFragments
	}
}

// WithAutoReorg upgrades background compaction into background
// re-organization: the worker WithBackgroundCompaction spawns runs
// CompactAuto instead of Compact, so each pass also asks the advisor
// whether the accumulated contents now favor a different organization
// and rewrites into it when so. Requires WithBackgroundCompaction (the
// trigger); without it the flag does nothing and Create/Open reject the
// combination.
func WithAutoReorg() Option {
	return func(s *Store) { s.autoReorg = true }
}

// withTileCache injects a Chunked store's shared cache into one of its
// tiles, bypassing WithSharedCache's conflict check — the chunked layer
// has already folded the user's cache options into this one cache, so a
// forwarded WithReaderCache budget is spent, not conflicting.
func withTileCache(c *fragcache.Cache) Option {
	return func(s *Store) {
		s.sharedCache = c
		s.cacheBudget = DefaultCacheBudget
	}
}

// withCacheScope labels this store's traffic on a shared cache (the
// scope is the tile key), keeping per-tile hit rates observable.
func withCacheScope(scope string) Option {
	return func(s *Store) { s.cacheScope = scope }
}
