package store

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/obs"
)

// key names an entry of the cache tests, which store their own values.
func key(name string) Key { return TextKey(1, name) }

// at is a snapshot of store storeID at version, with no graph: enough
// to put and look up entries without a vertex bound.
func at(storeID, version uint64) *Snapshot { return &Snapshot{storeID: storeID, version: version} }

// cacheEvents is what the obs cache.* counters, which count each cache
// event once, counted since a registry snapshot. No test here runs in
// parallel, so the counts are the test's own.
type cacheEvents struct{ hits, misses, evictions, invalidations, revalidations, promotions int64 }

func eventsSince(before obs.Snapshot) cacheEvents {
	d := obs.Default.Snapshot().Sub(before)
	return cacheEvents{d["cache.hits"], d["cache.misses"], d["cache.evictions"],
		d["cache.invalidations"], d["cache.revalidations"], d["cache.promotions"]}
}

// TestCacheLRUEviction: a Put enters probation, which keeps its share
// of the budget beyond its newest entry; a first hit promotes to
// protected, which keeps the rest in LRU order and demotes its least
// recent entry to the front of probation when it overflows; eviction
// takes the probation tail first, and the whole budget holds.
func TestCacheLRUEviction(t *testing.T) {
	start := obs.Default.Snapshot()
	c := NewCache(800) // probation 100 bytes, protected 700
	put := func(k string, bytes int64) { c.Put(key(k), k, bytes, at(1, 1), -1) }
	get := func(k string) bool {
		_, hit, _ := c.Lookup(key(k), at(1, 1))
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
	if st, ev := c.Stats(), eventsSince(start); ev.promotions != 7 || st.ProbationBytes != 0 || st.Bytes != 700 || ev.evictions != 1 {
		t.Fatalf("seven promoted: stats = %+v, events = %+v", st, ev)
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
	st, ev := c.Stats(), eventsSince(start)
	if ev.evictions != 2 || st.Bytes != 800 || st.Entries != 8 || st.ProbationBytes != 100 || ev.promotions != 8 {
		t.Fatalf("stats = %+v, events = %+v", st, ev)
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
	start := obs.Default.Snapshot()
	c := NewCache(budget)
	hot := make([]string, 8)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
		c.Put(key(hot[i]), i, 600, at(1, 1), -1)
		if _, hit, _ := c.Lookup(key(hot[i]), at(1, 1)); !hit {
			t.Fatalf("%s missed right after its put", hot[i])
		}
	}
	var scanned, largest int64
	for i := 0; scanned < 20*budget; i++ {
		size := int64(512 + 997*i%1536)
		c.Put(key(fmt.Sprintf("scan%d", i)), i, size, at(1, 1), -1)
		scanned += size
		largest = max(largest, size)
		st := c.Stats()
		if st.ProbationBytes > probationMax(budget)+largest || st.Bytes > budget {
			t.Fatalf("after %d scanned bytes: stats = %+v", scanned, st)
		}
	}
	for _, k := range hot {
		if _, hit, _ := c.Lookup(key(k), at(1, 1)); !hit {
			t.Fatalf("hot %s evicted by a scan", k)
		}
	}
	if st, ev := c.Stats(), eventsSince(start); ev.promotions != int64(len(hot)) || st.Bytes-st.ProbationBytes != 600*int64(len(hot)) {
		t.Fatalf("stats = %+v, events = %+v, want the hot set alone protected", st, ev)
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
		id := uint64(1 + rng.Intn(2))
		k := TextKey(id, fmt.Sprint(rng.Intn(20)))
		switch r := rng.Intn(100); {
		case r < 45:
			c.Put(k, step, int64(1+rng.Intn(300)), at(id, uint64(rng.Intn(3))), -1)
		case r < 97:
			c.Lookup(k, at(id, uint64(rng.Intn(3))))
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
	start := obs.Default.Snapshot()
	c := NewCache(1 << 20)
	c.Put(key("a"), 1, 10, at(1, 1), -1)
	c.Put(key("b"), 2, 10, at(1, 1), -1)
	other := TextKey(8, "other-store")
	c.Put(other, 3, 10, at(8, 1), -1)
	// A lookup at a newer version finds an entry without a bound stale:
	// it misses and the entry goes. Entries no lookup meets stay until
	// LRU or DropStore.
	if _, ok, _ := c.Lookup(key("a"), at(1, 2)); ok {
		t.Fatalf("stale version served after the bump")
	}
	if _, ok, _ := c.Lookup(key("a"), at(1, 1)); ok {
		t.Fatalf("stale entry survived the lookup that found it stale")
	}
	if _, ok, _ := c.Lookup(key("b"), at(1, 1)); !ok {
		t.Fatalf("entry no newer lookup met was dropped")
	}
	if _, ok, _ := c.Lookup(other, at(8, 1)); !ok {
		t.Fatalf("unrelated store invalidated")
	}
	if ev := eventsSince(start); ev.invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", ev.invalidations)
	}

	// A newer entry serves its own version, misses an older reader
	// without being dropped, and is not displaced by the older answer.
	c.Put(key("b"), 4, 10, at(1, 3), -1)
	if _, ok, _ := c.Lookup(key("b"), at(1, 2)); ok {
		t.Fatalf("newer entry served an older reader")
	}
	c.Put(key("b"), 5, 10, at(1, 2), -1)
	if v, ok, _ := c.Lookup(key("b"), at(1, 3)); !ok || v != 4 {
		t.Fatalf("older put displaced the newer entry: %v %v", v, ok)
	}

	c.DropStore(8)
	if _, ok, _ := c.Lookup(other, at(8, 1)); ok {
		t.Fatalf("DropStore left the entry")
	}
}

// lineage is the versions of one store, from seedGraph (vertices 0–2):
// v1 sets a property, v2 adds vertices 3 and 4 linked to each other
// only, v3 adds an edge between old vertices, v4 grows apart again (5,
// 6), v5 labels an old vertex, and v6 grows apart (7, 8). So v0–v2
// carry Touched 0, v3–v4 Touched 3 and v5–v6 Touched 5, and every pair
// of versions below 3 sits behind touching writes newer than both.
func lineage(t *testing.T) []*Snapshot {
	t.Helper()
	st := New(seedGraph())
	snaps := []*Snapshot{st.Pin()}
	for _, write := range []func(tx *Tx){
		func(tx *Tx) { tx.SetProp(0, "k", cypher.Value{Int: 1, IsInt: true}) },
		func(tx *Tx) { tx.Graph().AddEdge(3, "a", 4) },
		func(tx *Tx) { tx.Graph().AddEdge(0, "b", 1) },
		func(tx *Tx) { tx.Graph().AddEdge(5, "a", 6) },
		func(tx *Tx) { tx.Graph().AddVertexLabel(1, "M") },
		func(tx *Tx) { tx.Graph().AddEdge(7, "b", 8) },
	} {
		snap, err := st.Update(func(tx *Tx) error { write(tx); return nil })
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	for i, want := range []uint64{0, 0, 0, 3, 3, 5, 5} {
		if got := snaps[i].Touched(); got != want {
			t.Fatalf("v%d: Touched %d, want %d", i, got, want)
		}
	}
	return snaps
}

// How a lookup of a key with an entry went.
const (
	exact       = "exact hit"
	revalidated = "revalidated hit"
	missed      = "miss, entry kept"
	stale       = "miss, entry dropped"
)

// lookupAt looks k up at snap, which must find an entry, and reports
// how that went, checking that the obs counters saw it once.
func lookupAt(t *testing.T, c *Cache, k Key, snap *Snapshot) string {
	t.Helper()
	before, entries := obs.Default.Snapshot(), c.Stats().Entries
	_, hit, found := c.Lookup(k, snap)
	ev := eventsSince(before)
	if !found {
		t.Fatalf("lookup at v%d found no entry", snap.Version())
	}
	got, want := missed, cacheEvents{misses: 1}
	switch {
	case hit && ev.revalidations > 0:
		got, want = revalidated, cacheEvents{hits: 1, revalidations: 1}
	case hit:
		got, want = exact, cacheEvents{hits: 1}
	case c.Stats().Entries < entries:
		got, want = stale, cacheEvents{misses: 1, invalidations: 1}
	}
	ev.promotions = 0 // a first hit promotes: the segments' business
	if ev != want {
		t.Fatalf("lookup at v%d (%s) counted %+v, want %+v", snap.Version(), got, ev, want)
	}
	return got
}

// TestCacheServesAcrossVersions: an entry with a vertex bound serves a
// reader at another version exactly when the newer of the two grew
// apart from the older and every source exists at the reader's, whatever
// writes came after both; an entry without a bound serves its own
// version only. A revalidation by a newer reader restamps the entry, so
// that reader's next lookup is an exact hit.
func TestCacheServesAcrossVersions(t *testing.T) {
	snaps := lineage(t)
	for _, c := range []struct {
		name       string
		put, bound int // the entry's version and vertex bound
		reader     int
		want       string
	}{
		{"own version", 0, 2, 0, exact},
		{"property write, reader ahead", 0, 3, 1, revalidated},
		{"property write, reader behind", 1, 3, 0, revalidated},
		{"apart growth, reader ahead", 1, 3, 2, revalidated},
		{"apart growth, reader behind", 2, 3, 0, revalidated},
		{"no bound, reader ahead", 0, -1, 1, stale},
		{"no bound, reader behind", 1, -1, 0, missed},
		{"empty id list", 2, 0, 0, revalidated},
		{"seek id beyond the reader's vertex count", 2, 5, 1, missed},
		{"touching edge, reader ahead", 2, 3, 3, stale},
		{"touching edge, reader behind", 3, 3, 2, missed},
		{"both past the touching edge, reader ahead", 3, 3, 4, revalidated},
		{"both past the touching edge, reader behind", 4, 5, 3, revalidated},
		{"label on an old vertex, reader ahead", 4, 3, 5, stale},
		{"label on an old vertex, reader behind", 5, 3, 4, missed},
		{"a touching write among apart ones", 1, 3, 4, stale},
		{"both behind the last touching writes", 0, 5, 2, revalidated},
	} {
		cache := NewCache(1 << 20)
		k := key(c.name)
		cache.Put(k, c.name, 10, snaps[c.put], c.bound)
		if got := lookupAt(t, cache, k, snaps[c.reader]); got != c.want {
			t.Fatalf("%s: entry at v%d with bound %d, reader at v%d: %s, want %s", c.name, c.put, c.bound, c.reader, got, c.want)
		}
		if c.want == revalidated {
			if got := lookupAt(t, cache, k, snaps[max(c.put, c.reader)]); got != exact {
				t.Fatalf("%s: next lookup at v%d: %s, want %s", c.name, max(c.put, c.reader), got, exact)
			}
		}
	}
}

// TestCacheRevalidation: one entry with a vertex bound through a
// sequence of lookups. It serves a newer reader across a property write
// and an apart growth, which restamps it, then an older one; a touching
// write makes it stale for the writer's version, and an entry computed
// past the touching write misses a reader behind it and stays.
func TestCacheRevalidation(t *testing.T) {
	snaps := lineage(t)
	start := obs.Default.Snapshot()
	c := NewCache(1 << 20)
	c.Put(key("k"), "v", 10, snaps[1], 3)
	for _, step := range []struct {
		reader int
		want   string
	}{
		{2, revalidated}, // restamped to v2
		{0, revalidated},
		{2, exact},
		{1, revalidated},
		{3, stale},
	} {
		if got := lookupAt(t, c, key("k"), snaps[step.reader]); got != step.want {
			t.Fatalf("lookup at v%d: %s, want %s", step.reader, got, step.want)
		}
	}
	if _, hit, found := c.Lookup(key("k"), snaps[2]); hit || found {
		t.Fatalf("the stale entry outlived its invalidation: hit %v, found %v", hit, found)
	}
	c.Put(key("k"), "w", 10, snaps[3], 3)
	for _, step := range []struct {
		reader int
		want   string
	}{{2, missed}, {3, exact}, {4, revalidated}} {
		if got := lookupAt(t, c, key("k"), snaps[step.reader]); got != step.want {
			t.Fatalf("lookup at v%d of the entry at v3: %s, want %s", step.reader, got, step.want)
		}
	}
	if ev := eventsSince(start); ev.revalidations != 4 || ev.hits != 6 || ev.invalidations != 1 || ev.misses != 2 {
		t.Fatalf("events = %+v, want 4 revalidations among 6 hits, 1 invalidation, 2 misses", ev)
	}
}

// TestCacheLookupLeavesAbsentKeysUncounted: Lookup counts a key without
// an entry as neither a hit nor a miss, so its caller can count the miss
// once it knows the key names something cacheable (Miss).
func TestCacheLookupLeavesAbsentKeysUncounted(t *testing.T) {
	start := obs.Default.Snapshot()
	c := NewCache(1 << 20)
	if _, hit, found := c.Lookup(key("k"), at(1, 1)); hit || found {
		t.Fatalf("empty cache: hit %v, found %v", hit, found)
	}
	if st, ev := c.Stats(), eventsSince(start); st.Hits != 0 || ev.misses != 0 {
		t.Fatalf("a lookup of an absent key counted: %+v, %+v", st, ev)
	}
	// An entry is found in either segment: first on probation, then,
	// after the hit that promotes it, protected.
	c.Put(key("k"), "v", 10, at(1, 1), -1)
	for i := 0; i < 2; i++ {
		if v, hit, found := c.Lookup(key("k"), at(1, 1)); !hit || !found || v != "v" {
			t.Fatalf("lookup %d at the entry's version: %v, hit %v, found %v", i, v, hit, found)
		}
	}
	if _, hit, found := c.Lookup(key("k"), at(1, 2)); hit || !found {
		t.Fatalf("stale lookup: hit %v, found %v", hit, found)
	}
	c.Miss()
	if st, ev := c.Stats(), eventsSince(start); st.Hits != 2 || ev.hits != 2 || ev.misses != 2 || ev.invalidations != 1 || ev.promotions != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, events = %+v, want 2 hits, 2 misses (stale, Miss), 1 invalidation, 1 promotion, nothing held", st, ev)
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
	c.Put(key("k"), 1, 10, at(1, 1), -1)
	if _, ok, _ := c.Lookup(key("k"), at(1, 1)); ok {
		t.Fatalf("disabled cache stored a value")
	}
	// Shrinking the budget purges.
	c.Configure(100)
	c.Put(key("k"), 1, 10, at(1, 1), -1)
	c.Configure(0)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disable did not purge: %+v", st)
	}
}
