package store

import (
	"errors"
	"fmt"
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

// defaultCompactAt is the fragment count at which a Chunked store's
// tile compacts itself in the background unless WithBackgroundCompaction
// says otherwise: every fragment a read's window meets costs it an open
// and a merge run. Each compaction rewrites the whole tile, once per 63
// writes that meet it after the first 64. A flat store compacts in the
// background only when asked: its whole tensor would be rewritten that
// often, and its as-of versions count fragments that a compaction folds.
const defaultCompactAt = 64

// WithBackgroundCompaction makes the store compact itself: whenever a
// mutation publishes a snapshot holding at least minFragments
// fragments and no compaction worker is already running, one is
// spawned. A Chunked store's tiles do so at 64 fragments without this
// option; a flat store only with it. The worker serializes with
// writers through the writer lock, and with the other tiles of a
// Chunked store through one compaction at a time; readers are never
// blocked (MVCC snapshots, see view.go). minFragments must be at least
// 2 — a one-fragment store is already compact. Close waits for an
// in-flight worker.
func WithBackgroundCompaction(minFragments int) Option {
	return func(s *Store) {
		if minFragments < 2 {
			s.recordOptErr("WithBackgroundCompaction", fmt.Sprintf("threshold %d (need >= 2 fragments for a compaction to exist)", minFragments))
			return
		}
		s.compactAt = minFragments
	}
}

// withTile makes a store one of c's tiles. It resolves fragments
// through the cache all c's tiles share — the chunked layer has already
// spent the user's cache budget on that one cache, so a forwarded
// WithReaderCache is superseded — and labels its traffic with the
// tile's name, keeping per-tile hit rates observable. It compacts at
// defaultCompactAt fragments unless a forwarded WithBackgroundCompaction,
// which precedes withTile in the tile's options, set a threshold; its
// background compactions take c's gate, so a chunked store runs one at
// a time however many tiles cross the threshold together.
func withTile(c *Chunked, scope string) Option {
	return func(s *Store) {
		s.tileCache, s.cacheScope, s.compactGate = c.cache, scope, &c.compactGate
		if s.compactAt == 0 {
			s.compactAt = defaultCompactAt
		}
	}
}
