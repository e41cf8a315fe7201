// Package fragcache caches open fragment readers for the storage
// engine's read paths. A fragment is immutable once written, so its
// decoded index (a core.Reader) and value buffer can be reused across
// queries for as long as memory allows; the cache turns the store's
// repeated fetch-decode-open sequence into a map lookup on warm reads.
//
// The cache is an LRU keyed by fragment name with a configurable byte
// budget over the estimated resident footprint of each entry. Fills are
// singleflighted: when several readers miss on the same fragment
// concurrently, one performs the load and the rest wait for its result,
// so a fragment is fetched and decoded at most once however many
// goroutines race on it. Entries are invalidated explicitly when
// compaction or deletion removes their fragment files.
//
// Admission is guarded: an entry whose footprint exceeds half the byte
// budget is served to its caller but never retained, so one giant
// fragment (a scan pulling a whole-store fragment through the cache)
// cannot evict a hot working set of small fragments. Such fills count
// as fragcache.rejected rather than churning the LRU.
//
// A cache may be shared by several stores — the tiles of a tiled
// store budget against one Cache. GetScoped labels the hit/miss
// counters with the caller's scope (the tile key) so per-tile hit
// rates stay observable even though residency is pooled.
//
// Observability (per store registry):
//
//	fragcache.hits       counter — entry served from cache (also per scope)
//	fragcache.coalesced  counter — miss served by waiting on another fill (also per scope)
//	fragcache.misses     counter — miss that performed the fill (also per scope)
//	fragcache.evictions  counter — entries evicted over budget
//	fragcache.rejected   counter — fills too large to admit (> budget/2)
//	fragcache.bytes      gauge   — resident footprint estimate
//	fragcache.entries    gauge   — resident entry count
//	fragcache.fill       span    — one cache fill (fetch + decode + open)
package fragcache

import (
	"container/list"
	"sync"

	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/obs"
)

// Entry is one cached fragment: its header, the opened index reader,
// and the value buffer, everything a read path needs to probe or scan
// the fragment without touching the file system. Entries are shared
// across queries and goroutines; readers must treat them as read-only
// (every core.Reader in this module has read-only Lookup/Each/Scan).
type Entry struct {
	Name   string
	Header fragment.Header
	Reader core.Reader
	Values []float64
	// Bytes estimates the resident footprint used against the budget.
	Bytes int64
}

// flight tracks one in-progress fill; waiters block on done.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// Cache is the byte-budgeted LRU. A nil *Cache is the disabled state:
// Get forwards straight to the fill function with no retention and no
// singleflight, so call sites need no conditionals.
type Cache struct {
	reg func() *obs.Registry // resolved per call; nil-safe

	mu      sync.Mutex
	budget  int64
	size    int64
	ll      *list.List // *Entry values; front is most recently used
	items   map[string]*list.Element
	flights map[string]*flight
}

// New returns a cache with the given byte budget. budget must be
// positive (callers encode "disabled" as a nil *Cache). reg resolves
// the observability registry at use time; nil means unobserved.
func New(budget int64, reg func() *obs.Registry) *Cache {
	if reg == nil {
		reg = func() *obs.Registry { return nil }
	}
	return &Cache{
		reg:     reg,
		budget:  budget,
		ll:      list.New(),
		items:   map[string]*list.Element{},
		flights: map[string]*flight{},
	}
}

// Get returns the cached entry for name, or runs fill to produce it.
// Concurrent Gets for the same name share one fill. A fill error is
// returned to every waiter and nothing is cached. The returned entry is
// valid even when it was not admitted or was immediately evicted.
func (c *Cache) Get(name string, fill func() (*Entry, error)) (*Entry, error) {
	return c.GetScoped("", name, fill)
}

// count increments the unlabeled counter for family and, when the
// caller declared a scope, its scope-labeled twin. The unlabeled family
// stays the cache-wide total; the labeled one attributes traffic to one
// sharer (a store's tile) of a shared cache.
func (c *Cache) count(reg *obs.Registry, family, scope string) {
	reg.Counter(family).Inc()
	if scope != "" {
		reg.Counter(family, "scope", scope).Inc()
	}
}

// GetScoped is Get with a scope label on the hit/miss/coalesced
// counters, so sharers of one cache (the tiles of a store) keep
// individually observable hit rates. scope "" is plain Get. Residency
// and eviction are cache-wide regardless of scope — names must be
// unique across sharers (fragment names embed the tile prefix).
func (c *Cache) GetScoped(scope, name string, fill func() (*Entry, error)) (*Entry, error) {
	if c == nil {
		return fill()
	}
	c.mu.Lock()
	if el, ok := c.items[name]; ok {
		c.ll.MoveToFront(el)
		reg := c.reg
		c.mu.Unlock()
		c.count(reg(), "fragcache.hits", scope)
		return el.Value.(*Entry), nil
	}
	if fl, ok := c.flights[name]; ok {
		reg := c.reg
		c.mu.Unlock()
		c.count(reg(), "fragcache.coalesced", scope)
		<-fl.done
		return fl.e, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[name] = fl
	c.mu.Unlock()

	c.count(c.reg(), "fragcache.misses", scope)
	sp := c.reg().Start("fragcache.fill")
	fl.e, fl.err = fill()
	sp.End()

	c.mu.Lock()
	delete(c.flights, name)
	if fl.err == nil && fl.e != nil {
		switch {
		case fl.e.Bytes*2 > c.budget:
			// Admission guard: an entry that would claim more than half
			// the budget is served but not retained — caching it would
			// evict an entire hot working set for one probably-cold read.
			c.reg().Counter("fragcache.rejected").Inc()
		default:
			// A fill can race with Invalidate (a compaction finishing while
			// the fill is in flight). Inserting the stale entry is harmless:
			// once the manifest drops a fragment its name is never requested
			// again, so the entry just ages out of the LRU.
			if _, ok := c.items[name]; !ok {
				c.items[name] = c.ll.PushFront(fl.e)
				c.size += fl.e.Bytes
				c.evictLocked()
			}
		}
		c.updateGaugesLocked()
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.e, fl.err
}

// Peek returns the resident entry for name, or nil, and changes
// nothing: no counter, no recency, no fill. It is how a reader whose
// fragments are about to be retired (compaction) uses what is already
// resident without filling the cache with what it loads, as RocksDB's
// fill_cache=false read option does.
func (c *Cache) Peek(name string) *Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[name]; ok {
		return el.Value.(*Entry)
	}
	return nil
}

// evictLocked removes least-recently-used entries until the size fits
// the budget. The admission guard keeps any single entry at or below
// half the budget, so eviction only ever trims the LRU tail — it never
// has to clear the whole cache for one oversized insert.
func (c *Cache) evictLocked() {
	for c.size > c.budget && c.ll.Len() > 0 {
		el := c.ll.Back()
		e := el.Value.(*Entry)
		c.ll.Remove(el)
		delete(c.items, e.Name)
		c.size -= e.Bytes
		c.reg().Counter("fragcache.evictions").Inc()
	}
}

func (c *Cache) updateGaugesLocked() {
	reg := c.reg()
	reg.Gauge("fragcache.bytes").Set(c.size)
	reg.Gauge("fragcache.entries").Set(int64(c.ll.Len()))
}

// Invalidate drops the entries for the given fragment names, if
// resident. Used when compaction or deletion removes fragment files.
func (c *Cache) Invalidate(names ...string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped int64
	for _, name := range names {
		if el, ok := c.items[name]; ok {
			e := el.Value.(*Entry)
			c.ll.Remove(el)
			delete(c.items, name)
			c.size -= e.Bytes
			dropped++
		}
	}
	if dropped > 0 {
		c.reg().Counter("fragcache.invalidated").Add(dropped)
	}
	c.updateGaugesLocked()
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// SizeBytes returns the resident footprint estimate.
func (c *Cache) SizeBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Budget returns the byte budget the cache was created with (0 for the
// nil, disabled cache).
func (c *Cache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}
