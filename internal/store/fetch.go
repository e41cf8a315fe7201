package store

import (
	"fmt"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/obs"
	"sparseart/internal/store/fragcache"
)

// This file is the single entry point every read path uses to turn a
// fragRef into a probeable fragment. The cold path is one fsim.FS.Open,
// one ReadAt of the whole file (its size is the manifest's record) and
// one Close; the overlap search itself never touches fragment files
// because bounding boxes live in the manifest. The warm path is a
// fragcache hit and performs no file system operations at all.

// loadFragment performs a cold fragment load, charging the IO
// span/phase for the open and the read and the Extract span for
// decompression and index opening. rep must be non-nil; root may be nil
// (spans are nil-safe).
func (s *Store) loadFragment(root *obs.Span, fr fragRef, rep *ReadReport) (*fragcache.Entry, error) {
	reg := s.obsReg()
	kind := s.kind.String()

	sp := root.Child(obsReadIO)
	t := time.Now()
	f, err := s.fs.Open(fr.name)
	if err != nil {
		sp.End()
		reg.Counter("store.read.errors", "kind", kind).Inc()
		return nil, fmt.Errorf("store: open fragment %s: %w", fr.name, err)
	}
	raw, err := fragment.OpenAt(f, fr.bytes)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		sp.End()
		reg.Counter("store.read.errors", "kind", kind).Inc()
		return nil, fmt.Errorf("store: fragment %s: %w", fr.name, err)
	}
	wall := time.Since(t)
	if cost, ok := s.takeCost(); ok {
		rep.IO += wall + cost.Read + cost.Write
		rep.Extract += cost.Meta
		sp.Add(cost.Read + cost.Write)
	} else {
		rep.IO += wall
	}
	sp.End()
	reg.Counter("store.read.bytes", "kind", kind).Add(raw.Bytes)
	rep.BytesRead += raw.Bytes

	sp = root.Child(obsReadExtract)
	t = time.Now()
	payload, err := raw.Payload()
	values := raw.Values()
	// Open with the format named by the fragment's own header, not the
	// store's organization. This build writes every fragment in the
	// store's kind, but the bytes on disk may come from an earlier one
	// that re-organized stores in place: a crash between that pass's
	// manifest-log record and the checkpoint carrying the new kind
	// leaves fragments of two kinds (testdata/mixed-kinds), and each is
	// only decodable by the format that built it.
	var reader core.Reader
	if err == nil {
		format := s.format
		if fk := raw.Header.Kind; fk != format.Kind() && fk.Valid() {
			format, err = core.Get(fk)
		}
		if err == nil {
			reader, err = format.Open(payload, s.shape)
		}
	}
	if err != nil {
		sp.End()
		reg.Counter("store.read.errors", "kind", kind).Inc()
		return nil, fmt.Errorf("store: fragment %s: %w", fr.name, err)
	}
	sp.End()
	rep.Extract += time.Since(t)

	return &fragcache.Entry{
		Name:   fr.name,
		Header: raw.Header,
		Reader: reader,
		Values: values,
		// Footprint estimate: an entry pins the one file buffer
		// OpenAt filled (the reader's vectors and, where aligned,
		// the values are views of it), plus the decoded payload under a
		// codec other than None, plus fixed overhead.
		Bytes: int64(len(payload)) + int64(8*len(values)) + 128,
	}, nil
}

// fetchFragment resolves a fragment through the reader cache (when
// enabled), falling back to a direct load. On a cache hit or a
// coalesced fill nothing is attributed to rep's IO/Extract phases —
// only the goroutine that actually performs the load pays for it.
func (s *Store) fetchFragment(root *obs.Span, fr fragRef, rep *ReadReport) (*fragcache.Entry, error) {
	if s.cache == nil {
		rep.CacheMisses++
		return s.loadFragment(root, fr, rep)
	}
	// cacheScope labels this store's traffic (a chunked store sets it to
	// the tile key) so a shared cache's hit rates stay attributable.
	loaded := false
	e, err := s.cache.GetScoped(s.cacheScope, fr.name, func() (*fragcache.Entry, error) {
		loaded = true
		return s.loadFragment(root, fr, rep)
	})
	// Attribution is per request: a fetch counts as a miss only when
	// this request's own loader ran. A coalesced fill (another request
	// performed the load while we waited) is a hit here — we paid no
	// I/O — and a miss in the report of whoever did.
	if loaded {
		rep.CacheMisses++
	} else if err == nil {
		rep.CacheHits++
	}
	return e, err
}
