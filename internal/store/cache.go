package store

import (
	"container/list"
	"sync"

	"mscfpq/internal/obs"
)

// entry is one cached value plus the bookkeeping eviction and the
// cross-version rule (serves) need.
type entry struct {
	key     Key // of the store incarnation val was computed in
	val     any
	bytes   int64
	version uint64 // a version val is right at, first its snapshot's; read and restamped under Cache.mu
	touched uint64 // version's Touched stamp; read and restamped under Cache.mu
	bound   int    // the vertex bound of the rows val read (plan.Plan.Footprint); < 0: val is right at its own version only
	hot     bool   // in the protected segment; read and set under Cache.mu
}

// serves reports whether e, computed at another version of snap's
// store, is right at snap: e read only the rows of sources below its
// bound, every one of them exists at snap, and the newer of the two
// versions grew apart from the older (Snapshot.Touched), so the rows of
// every vertex of the older are the same at both.
func (e *entry) serves(snap *Snapshot) bool {
	return e.bound >= 0 &&
		max(e.touched, snap.Touched()) <= min(e.version, snap.Version()) &&
		e.bound <= snap.Graph().NumVertices()
}

// Cache is the query result cache: a segmented LRU under a
// configurable byte budget. An entry records the store incarnation, the
// version its value was computed at with that version's Touched stamp,
// and the vertex bound of the rows it read, if that was all it read. A
// lookup at the entry's version hits; a lookup at another version hits
// only when the entry serves it (entry.serves). Otherwise an entry
// older than the lookup is stale and goes (an invalidation), while a
// newer one stays for readers at its own version.
//
// Every Put enters the probation segment, which holds an eighth of the
// budget beyond its newest entry (probationMax); an entry's first hit
// promotes it to the protected segment, which may use the rest. Eviction takes the
// probation tail first, so answers nobody reads again (a scan of texts
// that never repeat) churn probation alone and leave the protected hot
// set where it is. When protected outgrows its share, its least recent
// entry is demoted to the front of probation. Stale entries no lookup
// meets go by LRU. Each event is counted by the obs cache.* counters.
// Safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64                 // guarded by mu: <= 0 disables the cache
	probation *list.List            // guarded by mu: never-hit (or demoted) entries, front = most recent
	protected *list.List            // guarded by mu: hit entries, front = most recent
	items     map[Key]*list.Element // guarded by mu
	bytes     int64                 // guarded by mu: sum of entry sizes
	probBytes int64                 // guarded by mu: sum of probation entry sizes
	hits      uint64                // guarded by mu
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

// CacheStats is a point-in-time view of a cache: the hits it served,
// at their own version or across versions, what it holds, and what the
// probation segment holds among Bytes.
type CacheStats struct {
	Hits                  uint64
	Entries               int
	Bytes, ProbationBytes int64
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

// Lookup returns the value cached under key for a reader at snapshot
// snap, updating LRU order; a hit promotes a probation entry to
// protected. An entry computed at snap's version hits; one computed at
// another version hits (a revalidation) when it serves snap
// (entry.serves), and a revalidation by a newer snap restamps it to
// snap's version. Otherwise the lookup misses, and an entry older than
// snap is dropped as stale. found reports whether key had an entry: a
// key without one counts as neither a hit nor a miss, so a caller that
// looks a text up before it knows whether the text is cacheable records
// the miss (Miss) once it does. The returned value is shared — callers
// must treat it as immutable.
func (c *Cache) Lookup(key Key, snap *Snapshot) (val any, hit, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false, false
	}
	e := el.Value.(*entry)
	switch v := snap.Version(); {
	case e.version == v:
		return c.hitLocked(el), true, true
	case e.serves(snap):
		obs.CacheRevalidations.Inc()
		if v > e.version {
			// Restamp: the answer holds at v, and a reader behind it can
			// still be served across the gap, so the next lookup here is
			// an exact hit.
			e.version, e.touched = v, snap.Touched()
		}
		return c.hitLocked(el), true, true
	case e.version < v:
		c.removeLocked(el)
		obs.CacheInvalidations.Inc()
		c.publishGaugesLocked()
	}
	obs.CacheMisses.Inc()
	return nil, false, true
}

// Miss counts a miss of a key Lookup found no entry for.
func (c *Cache) Miss() { obs.CacheMisses.Inc() }

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
	obs.CachePromotions.Inc()
	c.fitLocked()
	c.publishGaugesLocked()
	return e.val
}

// Put stores val, computed at snapshot snap, under key, a key of snap's
// store (TextKey), charging bytes against the budget. bound is the
// vertex bound of the rows val read (plan.Plan.Footprint), negative
// when val read more: then it serves snap's version only. A new key
// enters probation; a value replacing a protected entry stays
// protected, so a hot text recomputed after a write stays hot. An entry
// computed at a newer version stays: a reader pinned behind it does not
// displace it. Values too large for the whole budget are not stored.
func (c *Cache) Put(key Key, val any, bytes int64, snap *Snapshot, bound int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes <= 0 || bytes > c.maxBytes {
		return
	}
	hot := false
	if el, ok := c.items[key]; ok {
		old := el.Value.(*entry)
		if old.version > snap.Version() {
			return
		}
		hot = old.hot
		c.removeLocked(el)
	}
	c.pushLocked(&entry{key: key, val: val, bytes: bytes, version: snap.Version(), touched: snap.Touched(), bound: bound, hot: hot})
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
			if el.Value.(*entry).key.storeID == storeID {
				c.removeLocked(el)
				obs.CacheInvalidations.Inc()
			}
			el = next
		}
	}
	c.publishGaugesLocked()
}

// Stats returns the cache's point-in-time view.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Entries: len(c.items), Bytes: c.bytes, ProbationBytes: c.probBytes}
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
