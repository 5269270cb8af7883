package store

import (
	"slices"
	"testing"

	"mscfpq/internal/matrix"
)

// key names an entry of the cache tests, which store their own values.
func key(name string) Key { return TextKey(1, name) }

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(300)
	put := func(k string, bytes int64) { c.Put(key(k), k, bytes, 1, 1, nil) }
	get := func(k string) bool {
		_, hit, _ := c.Lookup(key(k), 1, nil)
		return hit
	}
	put("a", 100)
	put("b", 100)
	put("c", 100)
	if !get("a") {
		t.Fatalf("a evicted too early")
	}
	// a is now most recent; adding d must evict b (LRU).
	put("d", 100)
	if get("b") {
		t.Fatalf("b survived past the byte budget")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !get(k) {
			t.Fatalf("%s missing", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 300 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Oversized values are refused outright.
	put("huge", 1000)
	if get("huge") {
		t.Fatalf("oversized value cached")
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
	fp := &Footprint{Ctx: "S=x", Nonterm: 0, Sources: matrix.NewVectorFromIndices(4, []int{1})}
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
	c.Put(key("k"), "v", 10, 1, 1, nil)
	if v, hit, found := c.Lookup(key("k"), 1, nil); !hit || !found || v != "v" {
		t.Fatalf("lookup at the entry's version: %v, hit %v, found %v", v, hit, found)
	}
	if _, hit, found := c.Lookup(key("k"), 2, nil); hit || !found {
		t.Fatalf("stale lookup: hit %v, found %v", hit, found)
	}
	c.Miss()
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses (stale, Miss), 1 invalidation", st)
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
