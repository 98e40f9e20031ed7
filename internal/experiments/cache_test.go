package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
)

// cacheOpts is the smallest real sweep: AlexNet's five layers on one 4x4
// mesh, one simulated round.
func cacheOpts(c *Cache) Options {
	return Options{Rounds: 1, Meshes: []int{4}, Cache: c}
}

// testComparison is a small comparison that survives a JSON round trip
// unchanged.
func testComparison() *core.Comparison {
	return &core.Comparison{LatencyImprovementPct: 12.5, PowerImprovementPct: -3.25, EstimatedImprovementPct: 7}
}

func TestCacheMemoryRoundTrip(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.lookup("k"); ok {
		t.Fatal("empty cache hit")
	}
	want := testComparison()
	if err := c.store("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.lookup("k")
	if !ok || got != want {
		t.Fatalf("lookup = %p, %v; want the stored pointer %p", got, ok, want)
	}
	s := c.Stats()
	if s != (CacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss and no bytes moved", s)
	}
}

func TestCacheDiskPersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testComparison()
	if err := c1.store("key-a", want); err != nil {
		t.Fatal(err)
	}
	written := c1.Stats().BytesWritten
	if written == 0 {
		t.Fatal("store wrote no entry file")
	}

	// A fresh instance over the same directory must serve the entry: one
	// file read, then memory hits sharing the decoded value.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.lookup("key-a")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk lookup = %+v, %v; want %+v", got, ok, want)
	}
	again, ok := c2.lookup("key-a")
	if !ok || again != got {
		t.Fatalf("repeat lookup = %p, %v; want the decoded pointer %p", again, ok, got)
	}
	if s := c2.Stats(); s != (CacheStats{Hits: 2, BytesRead: written}) {
		t.Fatalf("stats = %+v, want 2 hits and one %d-byte file read", s, written)
	}
}

// writeEntry replaces the entry file stored under key with raw.
func writeEntry(t testing.TB, c *Cache, key, raw string) {
	t.Helper()
	if err := os.WriteFile(c.path(hashKey(key)), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCacheRejectsForeignEntries(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.store("key-a", testComparison()); err != nil {
		t.Fatal(err)
	}
	// Overwrite the entry with a different schema: a fresh instance must
	// report it stale and miss, not decode it.
	writeEntry(t, c1, "key-a", `{"Schema":"other/v9","Key":"key-a","Result":{}}`)
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.lookup("key-a"); ok {
		t.Fatal("foreign-schema entry served")
	}
	if s := c2.Stats(); s != (CacheStats{Misses: 1, Stale: 1}) {
		t.Fatalf("stats = %+v, want 1 stale / 1 miss", s)
	}
}

// TestCacheUndecodableResultIsAMiss: an entry whose envelope matches but
// whose Result is not a comparison is one stale miss, recomputed and
// rewritten, never a hit.
func TestCacheUndecodableResultIsAMiss(t *testing.T) {
	ref, err := Fig7(Options{Rounds: 1, Meshes: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	refText := RenderImprovements("t", "u", ref)

	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig7(cacheOpts(c1)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != len(ref) {
		t.Fatalf("glob: %d files, %v; want %d", len(files), err, len(ref))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]json.RawMessage
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	e["Result"] = json.RawMessage(`[1]`)
	if raw, err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig7(cacheOpts(c2))
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderImprovements("t", "u", rows); got != refText {
		t.Errorf("sweep over a damaged entry diverged from uncached:\n%s\nvs\n%s", got, refText)
	}
	n := uint64(len(ref))
	if s := c2.Stats(); s.Hits != n-1 || s.Misses != 1 || s.Stale != 1 {
		t.Fatalf("stats = %+v, want %d hits / 1 miss / 1 stale", s, n-1)
	}

	// The recomputed cell was rewritten: the next fresh instance hits it.
	c3, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig7(cacheOpts(c3)); err != nil {
		t.Fatal(err)
	}
	if s := c3.Stats(); s.Hits != n || s.Misses != 0 || s.Stale != 0 {
		t.Fatalf("after rewrite stats = %+v, want %d pure hits", s, n)
	}
}

// TestCacheInstancesShareNoMemo: every Cache starts empty and reads the
// directory, so an entry one instance serves from memory is gone for a
// fresh instance once its file is.
func TestCacheInstancesShareNoMemo(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.store("key-a", testComparison()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(c1.path(hashKey("key-a"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.lookup("key-a"); !ok {
		t.Fatal("memory layer lost the entry with its file")
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.lookup("key-a"); ok {
		t.Fatal("fresh instance served an entry whose file is gone")
	}
	if s := c2.Stats(); s != (CacheStats{Misses: 1}) {
		t.Fatalf("stats = %+v, want a plain miss", s)
	}
}

// TestCacheSharedAcrossWorkersAndSweeps hands one Cache to a two-worker
// sweep that repeats every cell and then to a second experiment over the
// same cells; under -race this checks the shared decoded values, and the
// rendered rows must equal the uncached runs'.
func TestCacheSharedAcrossWorkersAndSweeps(t *testing.T) {
	layers := append(cnn.AlexNetConvLayers(), cnn.AlexNetConvLayers()...)
	latency := func(c *core.Comparison) float64 { return c.LatencyImprovementPct }
	uncached := Options{Rounds: 1, Meshes: []int{4}, Workers: 2}
	refRepeat, err := improvementFigure(layers, uncached, latency)
	if err != nil {
		t.Fatal(err)
	}
	refFig9, err := Fig9(uncached)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cached := uncached
	cached.Cache = cache
	repeat, err := improvementFigure(layers, cached, latency)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9(cached)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := RenderImprovements("t", "u", repeat), RenderImprovements("t", "u", refRepeat); a != b {
		t.Errorf("repeated-cell sweep diverged from uncached:\n%s\nvs\n%s", a, b)
	}
	if a, b := RenderImprovements("t", "u", fig9), RenderImprovements("t", "u", refFig9); a != b {
		t.Errorf("Fig9 on the shared cache diverged from uncached:\n%s\nvs\n%s", a, b)
	}
	s := cache.Stats()
	if s.Hits+s.Misses != uint64(len(layers)+len(refFig9)) || s.Hits < uint64(len(refFig9)) || s.Stale != 0 || s.BytesRead != 0 {
		t.Fatalf("stats = %+v, want every Fig9 cell a memory hit", s)
	}
}

// FuzzCacheEntry: whatever bytes sit at a key's content-addressed path, a
// fresh Cache's lookup never panics and serves a hit only for a file whose
// schema and key match exactly and whose Result decodes to a comparison;
// anything else is exactly one stale and one miss.
func FuzzCacheEntry(f *testing.F) {
	const key = "fuzz-key"
	valid, err := json.Marshal(cacheEntry{Schema: cacheSchema, Key: key, Result: testComparison()})
	if err != nil {
		f.Fatal(err)
	}
	envelope := func(schema, key, result string) string {
		return fmt.Sprintf(`{"Schema":%q,"Key":%q,"Result":%s}`, schema, key, result)
	}
	for _, seed := range []string{
		string(valid),
		string(valid[:len(valid)/2]),
		envelope("other/v9", key, "{}"),
		envelope(cacheSchema, "other-key", "{}"),
		envelope(cacheSchema, key, "null"),
		envelope(cacheSchema, key, "[1]"),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := NewCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		writeEntry(t, c, key, string(in))
		cmp, ok := c.lookup(key)
		var e cacheEntry
		valid := json.Unmarshal(in, &e) == nil && e.Schema == cacheSchema && e.Key == key && e.Result != nil
		s := c.Stats()
		switch {
		case ok != valid:
			t.Fatalf("lookup hit = %v for an entry whose validity is %v", ok, valid)
		case ok && (cmp == nil || s != CacheStats{Hits: 1, BytesRead: uint64(len(in))}):
			t.Fatalf("hit returned %p with stats %+v", cmp, s)
		case !ok && (cmp != nil || s != CacheStats{Misses: 1, Stale: 1}):
			t.Fatalf("miss returned %p with stats %+v, want 1 stale / 1 miss", cmp, s)
		}
	})
}

// TestCachedSweepByteIdentical is the memoization contract: a cached
// sweep's rows render byte-for-byte like the uncached sweep's, the first
// pass misses every cell, and the rerun is served entirely from cache.
func TestCachedSweepByteIdentical(t *testing.T) {
	ref, err := Fig7(Options{Rounds: 1, Meshes: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	refText := RenderImprovements("t", "u", ref)

	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Fig7(cacheOpts(cache))
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderImprovements("t", "u", cold); got != refText {
		t.Errorf("cold cached sweep diverged from uncached:\n%s\nvs\n%s", got, refText)
	}
	s := cache.Stats()
	if s.Hits != 0 || s.Misses != uint64(len(ref)) {
		t.Fatalf("cold stats = %+v, want 0 hits / %d misses", s, len(ref))
	}

	warm, err := Fig7(cacheOpts(cache))
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderImprovements("t", "u", warm); got != refText {
		t.Errorf("warm cached sweep diverged from uncached:\n%s\nvs\n%s", got, refText)
	}
	s2 := cache.Stats()
	if s2.Misses != s.Misses || s2.Hits != uint64(len(ref)) {
		t.Fatalf("warm stats = %+v, want %d hits and no new misses", s2, len(ref))
	}
}

// TestCachedSweepWarmStartsFromDisk reruns the sweep in a fresh Cache
// instance over the same directory — the cross-process rerun CI pins.
func TestCachedSweepWarmStartsFromDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Fig7(cacheOpts(c1))
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Fig7(cacheOpts(c2))
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.Misses != 0 || s.Hits != uint64(len(cold)) {
		t.Fatalf("fresh-instance stats = %+v, want %d pure hits", s, len(cold))
	}
	if a, b := RenderImprovements("t", "u", cold), RenderImprovements("t", "u", warm); a != b {
		t.Errorf("disk warm-start diverged:\n%s\nvs\n%s", b, a)
	}
}

// TestAblationSharesCacheWithFigures checks cross-sweep memoization:
// distinct experiments whose cells materialize to the same canonical
// inputs share entries, and ablation cells that differ (mutated configs)
// do not collide.
func TestAblationSharesCacheWithFigures(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rounds: 1, Cache: cache}
	if _, err := AblationEta(opts); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Misses == 0 || s.Stale != 0 {
		t.Fatalf("stats = %+v, want fresh misses and no stale entries", s)
	}
	// η=8 on the 8x8 mesh is the default gather capacity: the sweep's
	// mutated cell must collide with the unmutated Conv3 cell by content,
	// which AblationDelta's δ-mutated cells must not.
	before := cache.Stats()
	if _, err := AblationEta(opts); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("rerun missed: %+v -> %+v", before, after)
	}
}
