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

// applyOptions sets the defaults, runs opts over them, and returns the
// first misuse. Create and Open configure the store through it;
// NewChunked runs it on a probe store so misuse is rejected before any
// tile exists.
func (s *Store) applyOptions(opts []Option) error {
	s.cacheBudget = DefaultCacheBudget
	for _, o := range opts {
		o(s)
	}
	return s.optErr
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

// withTileCache makes a Chunked store's tile resolve fragments through
// the cache all its tiles share — the chunked layer has already spent
// the user's cache budget on that one cache, so a forwarded
// WithReaderCache is superseded — and labels the tile's traffic with
// its name, keeping per-tile hit rates observable.
func withTileCache(c *fragcache.Cache, scope string) Option {
	return func(s *Store) { s.tileCache, s.cacheScope = c, scope }
}
