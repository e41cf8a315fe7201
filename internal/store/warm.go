package store

import (
	"strconv"

	"sparseart/internal/obs"
)

// Fragcache warming: Open can pre-fill the fragment-reader cache with
// the store's newest fragments, so a freshly opened store's first
// reads hit warm entries instead of each paying a cold
// fetch-decode-open. Newest fragments win because the read path's
// last-writer-wins merge consults them for every overlapping query —
// they are the entries a cold cache would fault in first anyway.

// WithWarmFragments makes Open pre-fill the reader cache with the
// newest k data fragments (tombstones carry no payload and are
// skipped). Warming is best-effort: a fragment that fails to load is
// skipped — the normal read path will surface the error with context
// when the fragment is actually needed — and the cache's own admission
// guard still applies, so an oversized fragment is loaded but not
// retained. Each fragment that lands in the cache increments the
// fragcache.warmed counter (and fragcache.warmed_bytes by its encoded
// size). k = 0 (the default) disables warming; on a
// Create'd store the option is accepted and moot (no fragments yet).
func WithWarmFragments(k int) Option {
	return func(s *Store) {
		if k < 0 {
			s.recordOptErr("WithWarmFragments", strconv.Itoa(k)+" fragments (need >= 0)")
			return
		}
		s.warmFrags = k
	}
}

// warmCache pre-loads the newest warmFrags data fragments through the
// ordinary fetch path (so shared caches, scope labels, and singleflight
// all behave as on a real read). Called by Open after the manifest log
// replays; no-op without a cache.
func (s *Store) warmCache() {
	k := s.warmFrags
	if k <= 0 || s.cache == nil {
		return
	}
	reg := s.obsReg()
	kind := s.kind.String()
	var rep ReadReport // warming pays its own I/O; nothing to attribute
	for i := len(s.frags) - 1; i >= 0 && k > 0; i-- {
		fr := s.frags[i]
		if fr.tomb || fr.nnz == 0 {
			continue
		}
		if _, err := s.fetchFragment(nil, fr, &rep); err == nil {
			reg.Counter("fragcache.warmed", "kind", kind).Inc()
			reg.Counter("fragcache.warmed_bytes", "kind", kind).Add(fr.bytes)
		}
		k--
	}
}

// Obs returns the registry this store reports to: the injected one
// (WithObs) or the process-global registry. Callers mounting an HTTP
// telemetry endpoint (internal/obs/serve) bind it to this registry so
// the scrape sees exactly this store's traffic.
func (s *Store) Obs() *obs.Registry { return s.obsReg() }
