package store

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mscfpq/internal/matrix"
)

// key names an entry of the cache tests, which store their own values.
func key(name string) Key { return TextKey(1, name) }

// TestCacheLRUEviction: a Put enters probation, which keeps its share
// of the budget beyond its newest entry; a first hit promotes to
// protected, which keeps the rest in LRU order and demotes its least
// recent entry to the front of probation when it overflows; eviction
// takes the probation tail first, and the whole budget holds.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(800) // probation 100 bytes, protected 700
	put := func(k string, bytes int64) { c.Put(key(k), k, bytes, 1, 1, nil) }
	get := func(k string) bool {
		_, hit, _ := c.Lookup(key(k), 1, nil)
		return hit
	}
	put("a", 100)
	put("b", 100)
	if get("a") {
		t.Fatalf("a outlived probation's share once b arrived")
	}
	// b and six more are hit once each: protected holds all seven.
	get("b")
	for _, k := range []string{"c", "d", "e", "f", "g", "h"} {
		put(k, 100)
		if !get(k) {
			t.Fatalf("%s missed right after its put", k)
		}
	}
	if st := c.Stats(); st.Promotions != 7 || st.ProbationBytes != 0 || st.Bytes != 700 || st.Evictions != 1 {
		t.Fatalf("seven promoted: stats = %+v", st)
	}
	// A hot text recomputed (put again) stays protected.
	put("b", 100)
	if st := c.Stats(); st.ProbationBytes != 0 || st.Bytes != 700 {
		t.Fatalf("replacing protected b moved it to probation: %+v", st)
	}
	// b is now most recent; promoting i overflows protected, which
	// demotes its LRU entry c to probation, where j's arrival evicts it.
	get("b")
	put("i", 100)
	get("i")
	if st := c.Stats(); st.ProbationBytes != 100 || st.Bytes != 800 {
		t.Fatalf("after the demotion: stats = %+v", st)
	}
	put("j", 100)
	if get("c") {
		t.Fatalf("demoted c survived past probation's share")
	}
	for _, k := range []string{"b", "d", "e", "f", "g", "h", "i"} {
		if !get(k) {
			t.Fatalf("%s missing", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Bytes != 800 || st.Entries != 8 || st.ProbationBytes != 100 || st.Promotions != 8 {
		t.Fatalf("stats = %+v", st)
	}
	// A value larger than probation's share but within the budget is
	// kept while it is probation's newest, so it can be hit once.
	put("big", 300)
	if !get("big") {
		t.Fatalf("a value over probation's share was not kept for its first hit")
	}
	if st := c.Stats(); st.Bytes > 800 || st.ProbationBytes > 100 {
		t.Fatalf("budget broken after promoting big: %+v", st)
	}
	// Values too large for the whole budget are refused outright.
	put("huge", 1000)
	if get("huge") {
		t.Fatalf("oversized value cached")
	}
}

// TestCacheScanKeepsHotSet: a hot set hit once stays through a scan of
// distinct keys many times the budget, and the never-hit entries of
// the scan hold at most probation's share plus one entry.
func TestCacheScanKeepsHotSet(t *testing.T) {
	const budget = 64 << 10
	c := NewCache(budget)
	hot := make([]string, 8)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
		c.Put(key(hot[i]), i, 600, 1, 1, nil)
		if _, hit, _ := c.Lookup(key(hot[i]), 1, nil); !hit {
			t.Fatalf("%s missed right after its put", hot[i])
		}
	}
	var scanned, largest int64
	for i := 0; scanned < 20*budget; i++ {
		size := int64(512 + 997*i%1536)
		c.Put(key(fmt.Sprintf("scan%d", i)), i, size, 1, 1, nil)
		scanned += size
		largest = max(largest, size)
		st := c.Stats()
		if st.ProbationBytes > probationMax(budget)+largest || st.Bytes > budget {
			t.Fatalf("after %d scanned bytes: stats = %+v", scanned, st)
		}
	}
	for _, k := range hot {
		if _, hit, _ := c.Lookup(key(k), 1, nil); !hit {
			t.Fatalf("hot %s evicted by a scan", k)
		}
	}
	if st := c.Stats(); st.Promotions != uint64(len(hot)) || st.Bytes-st.ProbationBytes != 600*int64(len(hot)) {
		t.Fatalf("stats = %+v, want the hot set alone protected", st)
	}
}

// TestCacheSegmentsInvariants drives a small cache with random puts,
// lookups, drops and budget changes, and checks after each step that
// the segments' bookkeeping matches their entries and that the budget,
// probation's share beyond its newest entry and protected's share hold.
func TestCacheSegmentsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCache(1000)
	for step := 0; step < 20000; step++ {
		k := key(fmt.Sprint(rng.Intn(40)))
		switch r := rng.Intn(100); {
		case r < 45:
			c.Put(k, step, int64(1+rng.Intn(300)), uint64(1+rng.Intn(2)), uint64(rng.Intn(3)), nil)
		case r < 97:
			c.Lookup(k, uint64(rng.Intn(3)), nil)
		case r < 99:
			c.DropStore(uint64(1 + rng.Intn(2)))
		default:
			c.Configure(int64(rng.Intn(2000)))
		}
		c.mu.Lock()
		var bytes, prob int64
		for _, l := range []*list.List{c.probation, c.protected} {
			for el := l.Front(); el != nil; el = el.Next() {
				e := el.Value.(*entry)
				if e.hot != (l == c.protected) || c.items[e.key] != el {
					c.mu.Unlock()
					t.Fatalf("step %d: entry %s misfiled", step, e.key)
				}
				bytes += e.bytes
				if !e.hot {
					prob += e.bytes
				}
			}
		}
		ok := bytes == c.bytes && prob == c.probBytes &&
			len(c.items) == c.probation.Len()+c.protected.Len() &&
			c.bytes <= max(c.maxBytes, 0) &&
			c.bytes-c.probBytes <= c.maxBytes-probationMax(c.maxBytes) &&
			(c.probBytes <= probationMax(c.maxBytes) || c.probation.Len() <= 1)
		st := fmt.Sprintf("budget %d, bytes %d (counted %d), probation %d (counted %d) in %d, protected %d",
			c.maxBytes, c.bytes, bytes, c.probBytes, prob, c.probation.Len(), c.protected.Len())
		c.mu.Unlock()
		if !ok {
			t.Fatalf("step %d: %s", step, st)
		}
	}
}

func TestCacheVersionBumpInvalidates(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put(key("a"), 1, 10, 7, 1, nil)
	c.Put(key("b"), 2, 10, 7, 1, nil)
	c.Put(key("other-store"), 3, 10, 8, 1, nil)
	// A lookup at a newer version finds a footprint-free entry stale:
	// it misses and the entry goes. Entries no lookup meets stay until
	// LRU or DropStore.
	if _, ok, _ := c.Lookup(key("a"), 2, nil); ok {
		t.Fatalf("stale version served after the bump")
	}
	if _, ok, _ := c.Lookup(key("a"), 1, nil); ok {
		t.Fatalf("stale entry survived the lookup that found it stale")
	}
	if _, ok, _ := c.Lookup(key("b"), 1, nil); !ok {
		t.Fatalf("entry no newer lookup met was dropped")
	}
	if _, ok, _ := c.Lookup(key("other-store"), 1, nil); !ok {
		t.Fatalf("unrelated store invalidated")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// A newer entry serves its own version, misses an older reader
	// without being dropped, and is not displaced by the older answer.
	c.Put(key("b"), 4, 10, 7, 3, nil)
	if _, ok, _ := c.Lookup(key("b"), 2, nil); ok {
		t.Fatalf("newer entry served an older reader")
	}
	c.Put(key("b"), 5, 10, 7, 2, nil)
	if v, ok, _ := c.Lookup(key("b"), 3, nil); !ok || v != 4 {
		t.Fatalf("older put displaced the newer entry: %v %v", v, ok)
	}

	c.DropStore(8)
	if _, ok, _ := c.Lookup(key("other-store"), 1, nil); ok {
		t.Fatalf("DropStore left the entry")
	}
}

// TestCacheRevalidation: an entry with a footprint serves another
// version, older or newer, exactly when the revalidation vouches for
// it, which runs without the cache's lock. A vouched newer version
// restamps the entry, so the next lookup there is an exact hit; a
// refused older entry goes, a refused newer one stays.
func TestCacheRevalidation(t *testing.T) {
	c := NewCache(1 << 20)
	fp := &Footprint{Sources: matrix.NewVectorFromIndices(4, []int{1})}
	c.Put(key("k"), "v", 10, 7, 5, fp)
	var asked []uint64
	vouch := func(ok bool) func(uint64, *Footprint) bool {
		return func(at uint64, got *Footprint) bool {
			if got != fp {
				t.Fatalf("revalidation got footprint %v, want the entry's", got)
			}
			asked = append(asked, at)
			// The cache's lock is free while revalidation runs.
			c.Stats()
			return ok
		}
	}
	for _, version := range []uint64{6, 4} {
		if v, ok, _ := c.Lookup(key("k"), version, vouch(true)); !ok || v != "v" {
			t.Fatalf("vouched lookup at %d missed", version)
		}
	}
	if _, ok, _ := c.Lookup(key("k"), 6, vouch(false)); !ok {
		t.Fatalf("lookup at the restamped version missed")
	}
	if _, ok, _ := c.Lookup(key("k"), 4, vouch(false)); ok {
		t.Fatalf("refused lookup at an older version hit")
	}
	if _, ok, _ := c.Lookup(key("k"), 7, vouch(false)); ok {
		t.Fatalf("refused lookup at a newer version hit")
	}
	if _, ok, _ := c.Lookup(key("k"), 6, nil); ok {
		t.Fatalf("entry refused at a newer version was kept")
	}
	if want := []uint64{5, 6, 6, 6}; !slices.Equal(asked, want) {
		t.Fatalf("revalidation asked at %v, want %v", asked, want)
	}
	if st := c.Stats(); st.Revalidations != 2 || st.Hits != 3 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheLookupLeavesAbsentKeysUncounted: Lookup counts a key without
// an entry as neither a hit nor a miss, so its caller can count the miss
// once it knows the key names something cacheable (Miss).
func TestCacheLookupLeavesAbsentKeysUncounted(t *testing.T) {
	c := NewCache(1 << 20)
	if _, hit, found := c.Lookup(key("k"), 1, nil); hit || found {
		t.Fatalf("empty cache: hit %v, found %v", hit, found)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a lookup of an absent key counted: %+v", st)
	}
	// An entry is found in either segment: first on probation, then,
	// after the hit that promotes it, protected.
	c.Put(key("k"), "v", 10, 1, 1, nil)
	for i := 0; i < 2; i++ {
		if v, hit, found := c.Lookup(key("k"), 1, nil); !hit || !found || v != "v" {
			t.Fatalf("lookup %d at the entry's version: %v, hit %v, found %v", i, v, hit, found)
		}
	}
	if _, hit, found := c.Lookup(key("k"), 2, nil); hit || !found {
		t.Fatalf("stale lookup: hit %v, found %v", hit, found)
	}
	c.Miss()
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 || st.Invalidations != 1 || st.Promotions != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want 2 hits, 2 misses (stale, Miss), 1 invalidation, 1 promotion, nothing held", st)
	}
}

// TestTextKeyForm: a result key is the store id and the text as they
// are, built without an allocation, since every statement is looked up
// before it parses.
func TestTextKeyForm(t *testing.T) {
	const text = "MATCH (v) RETURN v"
	if got := TextKey(1234567, text).String(); got != "res|1234567|"+text {
		t.Fatalf("TextKey = %q", got)
	}
	if got := TextKey(0, "").String(); got != "res|0|" {
		t.Fatalf("TextKey = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = TextKey(1234567, text) }); n != 0 {
		t.Fatalf("TextKey allocates %.0f objects, want 0", n)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	if c.Enabled() {
		t.Fatalf("zero-budget cache reports enabled")
	}
	c.Put(key("k"), 1, 10, 1, 1, nil)
	if _, ok, _ := c.Lookup(key("k"), 1, nil); ok {
		t.Fatalf("disabled cache stored a value")
	}
	// Shrinking the budget purges.
	c.Configure(100)
	c.Put(key("k"), 1, 10, 1, 1, nil)
	c.Configure(0)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disable did not purge: %+v", st)
	}
}
