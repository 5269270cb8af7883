package store

import (
	"container/list"
	"sync"
	"time"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
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
	expires time.Time  // zero when the cache has no TTL
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

// Cache is the query cache: an LRU under a configurable byte budget
// with optional TTL. An entry records the store incarnation and the
// version its value was computed at, and a lookup at that version hits.
// A lookup at another version hits only an entry with a footprint that
// the caller's revalidation vouches for; otherwise an entry older than
// the lookup is stale and goes (an invalidation), while a newer one
// stays for readers at its own version. Stale entries no lookup meets
// go by LRU. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64                 // guarded by mu: <= 0 disables the cache
	ttl      time.Duration         // guarded by mu: 0 means entries never expire
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

// NewCache returns a cache bounded by maxBytes (<= 0 disables it) with
// per-entry TTL ttl (0 = no expiry).
func NewCache(maxBytes int64, ttl time.Duration) *Cache {
	c := &Cache{ll: list.New(), items: map[Key]*list.Element{}}
	c.Configure(maxBytes, ttl)
	return c
}

// Configure replaces the byte budget and TTL, evicting (or purging,
// when disabled) to fit.
func (c *Cache) Configure(maxBytes int64, ttl time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes, c.ttl = maxBytes, ttl
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

// Get returns the value cached under key for a reader at version,
// updating LRU order; a key with no entry is a miss. It is Lookup for a
// caller that knows the key names something cacheable.
func (c *Cache) Get(key Key, version uint64, revalidate func(at uint64, fp *Footprint) bool) (any, bool) {
	v, hit, found := c.Lookup(key, version, revalidate)
	if !found {
		c.Miss()
	}
	return v, hit
}

// Lookup returns the value cached under key for a reader at version,
// updating LRU order. An entry computed at version hits. An entry
// computed at another version hits (a revalidation) only when it has a
// footprint and revalidate(at, fp) reports its rows the same at both
// versions; revalidate runs without the cache's lock, so it may do
// work, and a nil revalidate vouches for nothing. Otherwise the lookup
// misses, and an entry older than version is dropped as stale. Expired
// entries are dropped and count as misses. found reports whether key
// had an entry: a key without one counts as neither a hit nor a miss,
// so a caller that looks a text up before it knows whether the text is
// cacheable records the miss (Miss) once it does. The returned value is
// shared — callers must treat it as immutable.
func (c *Cache) Lookup(key Key, version uint64, revalidate func(at uint64, fp *Footprint) bool) (val any, hit, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && !time.Now().Before(e.expires) {
		c.removeLocked(el)
		c.evictions++
		obs.CacheEvictions.Inc()
		c.publishGaugesLocked()
		return c.missLocked()
	}
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
	var expires time.Time
	if c.ttl > 0 {
		expires = time.Now().Add(c.ttl)
	}
	e := &entry{key: key, val: val, bytes: bytes, storeID: storeID, version: version, fp: fp, expires: expires}
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

// PairsBytes estimates the cache charge of an answer pair set.
func PairsBytes(pairs [][2]int, key Key) int64 {
	return int64(len(pairs))*16 + int64(len(key.s)) + 64
}

// CachedEval answers a CFPQ evaluation through the cache: on a hit the
// previously computed pair set is returned (shared — treat as
// read-only); on a miss cfpq.Eval runs against g and the sorted answer
// pairs are stored under the canonical EvalKey for (storeID, version).
// The boolean reports whether the answer came from the cache. g must
// be the immutable graph of the (storeID, version) snapshot the caller
// pinned — the key, not the caller, is what guarantees cached and
// uncached results are byte-identical.
func CachedEval(c *Cache, storeID, version uint64, g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts ...cfpq.Option) ([][2]int, bool, error) {
	alg := exec.Build(opts).Algorithm
	if alg == exec.AlgAuto {
		// Resolve exactly as cfpq.Eval does, so AlgAuto and its resolved
		// algorithm share one entry.
		if src != nil {
			alg = exec.AlgMultiSource
		} else {
			alg = exec.AlgMatrix
		}
	}
	key := EvalKey(storeID, version, w, src, alg)
	if v, ok := c.Get(key, version, nil); ok {
		return v.([][2]int), true, nil
	}
	res, err := cfpq.Eval(g, w, src, opts...)
	if err != nil {
		return nil, false, err
	}
	pairs := res.Pairs()
	c.Put(key, pairs, PairsBytes(pairs, key), storeID, version, nil)
	return pairs, false, nil
}
