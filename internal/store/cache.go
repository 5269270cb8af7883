package store

import (
	"container/list"
	"sync"

	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// entry is one cached value plus the bookkeeping eviction and
// revalidation need.
type entry struct {
	key     Key
	val     any
	bytes   int64
	storeID uint64
	version uint64     // a version val is right at, first the one it was computed at; read and restamped under Cache.mu
	fp      *Footprint // nil: val is right at its own version only
}

// Footprint is what a cached answer read of its snapshot, when that was
// all it read: the rows of nonterminal Nonterm of the path-pattern
// context Ctx (a declaration set, plan.CtxKey) for the sources Sources.
// An entry with a footprint may serve a reader at another version of
// its store, if those rows are the same there (Cache.Lookup); one without
// serves its own version only.
type Footprint struct {
	Ctx     string
	Nonterm int
	Sources *matrix.Vector
}

// Cache is the query result cache: an LRU under a configurable byte
// budget. An entry records the store incarnation and the version its
// value was computed at, and a lookup at that version hits. A lookup at
// another version hits only an entry with a footprint that the caller's
// revalidation vouches for; otherwise an entry older than the lookup is
// stale and goes (an invalidation), while a newer one stays for readers
// at its own version. Stale entries no lookup meets go by LRU. Safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64                 // guarded by mu: <= 0 disables the cache
	ll       *list.List            // guarded by mu: LRU order, front = most recent
	items    map[Key]*list.Element // guarded by mu
	bytes    int64                 // guarded by mu: sum of entry sizes

	hits, misses, evictions, invalidations, revalidations uint64 // guarded by mu
}

// CacheStats is a point-in-time counter snapshot. Revalidations counts
// the hits served across versions; they are among Hits too.
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations, Revalidations uint64
	Entries                                               int
	Bytes                                                 int64
}

// NewCache returns a cache bounded by maxBytes (<= 0 disables it).
func NewCache(maxBytes int64) *Cache {
	c := &Cache{ll: list.New(), items: map[Key]*list.Element{}}
	c.Configure(maxBytes)
	return c
}

// Configure replaces the byte budget, evicting (or purging, when
// disabled) to fit.
func (c *Cache) Configure(maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = maxBytes
	if maxBytes <= 0 {
		c.purgeLocked()
		return
	}
	c.evictToFitLocked()
	c.publishGaugesLocked()
}

// Enabled reports whether the cache currently stores anything.
func (c *Cache) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes > 0
}

// Lookup returns the value cached under key for a reader at version,
// updating LRU order. An entry computed at version hits. An entry
// computed at another version hits (a revalidation) only when it has a
// footprint and revalidate(at, fp) reports its rows the same at both
// versions; revalidate runs without the cache's lock, so it may do
// work, and a nil revalidate vouches for nothing. Otherwise the lookup
// misses, and an entry older than version is dropped as stale. found
// reports whether key had an entry: a key without one counts as neither
// a hit nor a miss, so a caller that looks a text up before it knows
// whether the text is cacheable records the miss (Miss) once it does.
// The returned value is shared — callers must treat it as immutable.
func (c *Cache) Lookup(key Key, version uint64, revalidate func(at uint64, fp *Footprint) bool) (val any, hit, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false, false
	}
	e := el.Value.(*entry)
	if e.version == version {
		return c.hitLocked(el), true, true
	}
	if e.fp != nil && revalidate != nil {
		at := e.version
		c.mu.Unlock()
		valid := revalidate(at, e.fp)
		c.mu.Lock()
		if c.items[key] != el {
			// Replaced or dropped while unlocked: e's verdict is moot.
			return c.missLocked()
		}
		if valid {
			c.revalidations++
			obs.CacheRevalidations.Inc()
			if version > e.version {
				// Restamp: the answer holds at version, and a reader
				// behind it can still revalidate across the gap, so the
				// next lookup here is an exact hit.
				e.version = version
			}
			return c.hitLocked(el), true, true
		}
	}
	if e.version < version {
		c.removeLocked(el)
		c.invalidations++
		obs.CacheInvalidations.Inc()
		c.publishGaugesLocked()
	}
	return c.missLocked()
}

// Miss counts a miss of a key Lookup found no entry for.
func (c *Cache) Miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	obs.CacheMisses.Inc()
}

func (c *Cache) hitLocked(el *list.Element) any {
	c.ll.MoveToFront(el)
	c.hits++
	obs.CacheHits.Inc()
	return el.Value.(*entry).val
}

// missLocked counts a miss of a key that had an entry.
func (c *Cache) missLocked() (val any, hit, found bool) {
	c.misses++
	obs.CacheMisses.Inc()
	return nil, false, true
}

// Put stores val, computed at version of store storeID, under key,
// charging bytes against the budget; fp, when non-nil, is what val read
// (Footprint). An entry computed at a newer version stays: a reader
// pinned behind it does not displace it. Values too large for the whole
// budget are not stored.
func (c *Cache) Put(key Key, val any, bytes int64, storeID, version uint64, fp *Footprint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes <= 0 || bytes > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		if el.Value.(*entry).version > version {
			return
		}
		c.removeLocked(el)
	}
	e := &entry{key: key, val: val, bytes: bytes, storeID: storeID, version: version, fp: fp}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += bytes
	c.evictToFitLocked()
	c.publishGaugesLocked()
}

// DropStore invalidates every entry of a store incarnation; the gdb
// layer calls it when GRAPH.DELETE or GRAPH.RESTORE retires the store
// object (its keys would otherwise linger until LRU eviction).
func (c *Cache) DropStore(storeID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).storeID == storeID {
			c.removeLocked(el)
			c.invalidations++
			obs.CacheInvalidations.Inc()
		}
		el = next
	}
	c.publishGaugesLocked()
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Invalidations: c.invalidations, Revalidations: c.revalidations,
		Entries: len(c.items), Bytes: c.bytes,
	}
}

// evictToFitLocked drops least-recently-used entries until the budget
// holds.
func (c *Cache) evictToFitLocked() {
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			return
		}
		c.removeLocked(back)
		c.evictions++
		obs.CacheEvictions.Inc()
	}
}

func (c *Cache) purgeLocked() {
	c.ll.Init()
	c.items = map[Key]*list.Element{}
	c.bytes = 0
	c.publishGaugesLocked()
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}

func (c *Cache) publishGaugesLocked() {
	obs.CacheBytes.Set(c.bytes)
	obs.CacheEntries.Set(int64(len(c.items)))
}
