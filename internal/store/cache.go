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
	hot     bool       // in the protected segment; read and set under Cache.mu
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

// Cache is the query result cache: a segmented LRU under a
// configurable byte budget. An entry records the store incarnation and
// the version its value was computed at, and a lookup at that version
// hits. A lookup at another version hits only an entry with a footprint
// that the caller's revalidation vouches for; otherwise an entry older
// than the lookup is stale and goes (an invalidation), while a newer one
// stays for readers at its own version.
//
// Every Put enters the probation segment, which holds an eighth of the
// budget beyond its newest entry (probationMax); an entry's first hit
// promotes it to the protected segment, which may use the rest. Eviction takes the
// probation tail first, so answers nobody reads again (a scan of texts
// that never repeat) churn probation alone and leave the protected hot
// set where it is. When protected outgrows its share, its least recent
// entry is demoted to the front of probation. Stale entries no lookup
// meets go by LRU. Safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64                 // guarded by mu: <= 0 disables the cache
	probation *list.List            // guarded by mu: never-hit (or demoted) entries, front = most recent
	protected *list.List            // guarded by mu: hit entries, front = most recent
	items     map[Key]*list.Element // guarded by mu
	bytes     int64                 // guarded by mu: sum of entry sizes
	probBytes int64                 // guarded by mu: sum of probation entry sizes

	hits, misses, evictions, invalidations, revalidations, promotions uint64 // guarded by mu
}

// probationShare is the probation segment's share of the budget, as a
// divisor. Probation must hold a hot set's first pass: a set of texts
// is read once into probation and promoted only when read again, so a
// hot set larger than probation would be evicted before its second
// read. An eighth of the default 64 MiB is 8 MiB, a hundred times the
// ~77 KB of mixed-rw's 128 warmed answers, and still leaves seven
// eighths to protected; a scan of answers nobody reads again holds at
// most this much.
const probationShare = 8

// probationMax is how many bytes the probation segment of a cache with
// budget maxBytes holds, beyond its newest entry.
func probationMax(maxBytes int64) int64 { return maxBytes / probationShare }

// CacheStats is a point-in-time counter snapshot. Revalidations counts
// the hits served across versions; they are among Hits too. Promotions
// counts entries moved from probation to protected by a hit;
// ProbationBytes is what the probation segment holds, among Bytes.
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations, Revalidations, Promotions uint64
	Entries                                                           int
	Bytes, ProbationBytes                                             int64
}

// NewCache returns a cache bounded by maxBytes (<= 0 disables it).
func NewCache(maxBytes int64) *Cache {
	c := &Cache{probation: list.New(), protected: list.New(), items: map[Key]*list.Element{}}
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
	c.fitLocked()
	c.publishGaugesLocked()
}

// Enabled reports whether the cache currently stores anything.
func (c *Cache) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes > 0
}

// Lookup returns the value cached under key for a reader at version,
// updating LRU order; a hit promotes a probation entry to protected.
// An entry computed at version hits. An entry computed at another
// version hits (a revalidation) only when it has a
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
		if el, ok = c.items[key]; !ok || el.Value.(*entry) != e {
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

// hitLocked counts a hit of el and moves it to the front of protected,
// promoting it if it was on probation.
func (c *Cache) hitLocked(el *list.Element) any {
	c.hits++
	obs.CacheHits.Inc()
	e := el.Value.(*entry)
	if e.hot {
		c.protected.MoveToFront(el)
		return e.val
	}
	c.moveLocked(el, true)
	c.promotions++
	obs.CachePromotions.Inc()
	c.fitLocked()
	c.publishGaugesLocked()
	return e.val
}

// missLocked counts a miss of a key that had an entry.
func (c *Cache) missLocked() (val any, hit, found bool) {
	c.misses++
	obs.CacheMisses.Inc()
	return nil, false, true
}

// Put stores val, computed at version of store storeID, under key,
// charging bytes against the budget; fp, when non-nil, is what val read
// (Footprint). A new key enters probation; a value replacing a protected
// entry stays protected, so a hot text recomputed after a write stays
// hot. An entry computed at a newer version stays: a reader pinned
// behind it does not displace it. Values too large for the whole budget
// are not stored.
func (c *Cache) Put(key Key, val any, bytes int64, storeID, version uint64, fp *Footprint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes <= 0 || bytes > c.maxBytes {
		return
	}
	hot := false
	if el, ok := c.items[key]; ok {
		old := el.Value.(*entry)
		if old.version > version {
			return
		}
		hot = old.hot
		c.removeLocked(el)
	}
	c.pushLocked(&entry{key: key, val: val, bytes: bytes, storeID: storeID, version: version, fp: fp, hot: hot})
	c.bytes += bytes
	c.fitLocked()
	c.publishGaugesLocked()
}

// DropStore invalidates every entry of a store incarnation; the gdb
// layer calls it when GRAPH.DELETE or GRAPH.RESTORE retires the store
// object (its keys would otherwise linger until LRU eviction).
func (c *Cache) DropStore(storeID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range [...]*list.List{c.probation, c.protected} {
		for el := l.Front(); el != nil; {
			next := el.Next()
			if el.Value.(*entry).storeID == storeID {
				c.removeLocked(el)
				c.invalidations++
				obs.CacheInvalidations.Inc()
			}
			el = next
		}
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
		Promotions: c.promotions,
		Entries:    len(c.items), Bytes: c.bytes, ProbationBytes: c.probBytes,
	}
}

// fitLocked restores the segments' bounds: protected's least recent
// entries are demoted to the front of probation until protected fits
// the budget beside probation's share; probation's least recent entries
// go until it fits its share, though never its newest, so an answer
// larger than the share can still be hit once; and while the whole
// budget is exceeded, the probation tail goes first, down to its
// newest entry, then the protected tail.
func (c *Cache) fitLocked() {
	share := probationMax(c.maxBytes)
	for c.bytes-c.probBytes > c.maxBytes-share {
		c.moveLocked(c.protected.Back(), false)
	}
	for c.probBytes > share && c.probation.Len() > 1 {
		c.evictLocked(c.probation.Back())
	}
	for c.bytes > c.maxBytes {
		el := c.protected.Back()
		if c.probation.Len() > 1 || el == nil {
			el = c.probation.Back()
		}
		c.evictLocked(el)
	}
}

func (c *Cache) evictLocked(el *list.Element) {
	c.removeLocked(el)
	c.evictions++
	obs.CacheEvictions.Inc()
}

func (c *Cache) purgeLocked() {
	c.probation.Init()
	c.protected.Init()
	c.items = map[Key]*list.Element{}
	c.bytes, c.probBytes = 0, 0
	c.publishGaugesLocked()
}

// pushLocked files e at the front of its segment.
func (c *Cache) pushLocked(e *entry) {
	if e.hot {
		c.items[e.key] = c.protected.PushFront(e)
	} else {
		c.items[e.key] = c.probation.PushFront(e)
		c.probBytes += e.bytes
	}
}

// unlinkLocked takes el out of its segment, leaving it in items.
func (c *Cache) unlinkLocked(el *list.Element) *entry {
	e := el.Value.(*entry)
	if e.hot {
		c.protected.Remove(el)
	} else {
		c.probation.Remove(el)
		c.probBytes -= e.bytes
	}
	return e
}

// moveLocked files el's entry at the front of protected (hot) or of
// probation.
func (c *Cache) moveLocked(el *list.Element, hot bool) {
	e := c.unlinkLocked(el)
	e.hot = hot
	c.pushLocked(e)
}

func (c *Cache) removeLocked(el *list.Element) {
	e := c.unlinkLocked(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}

func (c *Cache) publishGaugesLocked() {
	obs.CacheBytes.Set(c.bytes)
	obs.CacheProbationBytes.Set(c.probBytes)
	obs.CacheEntries.Set(int64(len(c.items)))
}
