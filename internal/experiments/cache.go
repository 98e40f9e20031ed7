package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gathernoc/internal/core"
	"gathernoc/internal/systolic"
)

// cacheSchema tags the on-disk entry envelope. It versions the storage
// format only; result semantics are versioned inside the key itself
// (core.ComparisonKeyVersion), so a simulator behaviour change produces
// new keys rather than stale-looking files. v3 writes a statistics sample
// as its count, sum and distinct values with their counts
// (stats.Sample.MarshalJSON); v2 wrote every observation.
const cacheSchema = "gathernoc/experiments.Cache/v3"

// CacheStats is the hit accounting a sweep accumulates.
type CacheStats struct {
	// Hits and Misses count lookups; Stale counts entry files that were
	// found but rejected (undecodable, wrong schema, key collision, a
	// missing record) and then recomputed, each of them a miss as well.
	Hits   uint64
	Misses uint64
	Stale  uint64
	// BytesRead and BytesWritten count entry-file bytes moved from and to
	// the directory: a disk hit reads its file, a store writes one. A
	// memory hit moves nothing, so both stay 0 for a memory-only cache.
	BytesRead    uint64
	BytesWritten uint64
}

// Cache memoizes simulation results content-addressed by their canonical
// input key: identical simulation inputs — after config-hash
// normalization, whatever closures produced them — map to one entry.
// Lookups always hit the in-memory layer first, which holds derived
// comparisons; with a directory configured, entries are also persisted as
// one JSON file per key, so a rerun in a fresh process warm-starts from
// disk, reading and deriving each file once per Cache. Safe for
// concurrent use by sweep workers.
type Cache struct {
	dir string

	mu    sync.Mutex
	mem   map[string]*core.Comparison
	stats CacheStats
}

// NewCache opens a cache over dir, creating the directory if needed. An
// empty dir selects a purely in-memory cache (one process's sweeps share
// results; nothing persists).
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	return &Cache{dir: dir, mem: make(map[string]*core.Comparison)}, nil
}

// Dir returns the persistence directory ("" = memory-only).
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the hit accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// cacheEntry is the one-file-per-key disk format: the schema tag and full
// key make every entry self-validating, so a hash collision or a file
// from an incompatible layout is detected and treated as stale instead of
// silently decoded. An entry holds what only simulating produces, the two
// runs' Records; everything else in a comparison is derived from the
// lookup's own inputs by core.Compare, the code a fresh run goes through.
type cacheEntry struct {
	Schema     string
	Key        string
	RU, Gather *systolic.Record
}

// hashKey content-addresses a canonical key string.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// lookup returns the comparison stored under key, consulting memory then
// disk. A disk hit is derived and kept in memory, so each entry file is
// read and derived once per Cache — twice only when two workers race to
// the same key, and then both get the pointer stored first.
func (c *Cache) lookup(key string, derive func(ru, g *systolic.Result) *core.Comparison) (*core.Comparison, bool) {
	hash := hashKey(key)
	c.mu.Lock()
	if cmp, ok := c.mem[hash]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		return cmp, true
	}
	c.mu.Unlock()
	// Read, decode and derive outside the lock, so sweep workers do it in
	// parallel.
	cmp, n, stale := c.load(hash, key, derive)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cmp == nil {
		c.stats.Misses++
		if stale {
			c.stats.Stale++
		}
		return nil, false
	}
	if prev, ok := c.mem[hash]; ok {
		cmp = prev
	} else {
		c.mem[hash] = cmp
	}
	c.stats.Hits++
	c.stats.BytesRead += uint64(n)
	return cmp, true
}

// load reads and decodes key's entry file in one pass and derives its
// comparison, returning it and the file's size, or nil and whether a file
// was there but rejected (stale).
func (c *Cache) load(hash, key string, derive func(ru, g *systolic.Result) *core.Comparison) (cmp *core.Comparison, n int, stale bool) {
	if c.dir == "" {
		return nil, 0, false
	}
	raw, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil, 0, false
	}
	var e cacheEntry
	if err := json.Unmarshal(raw, &e); err != nil || e.Schema != cacheSchema || e.Key != key || e.RU == nil || e.Gather == nil {
		return nil, 0, true
	}
	return derive(&systolic.Result{Record: *e.RU}, &systolic.Result{Record: *e.Gather}), len(raw), false
}

// store keeps cmp under key in memory and, when configured, writes its
// entry file. Disk write failures are surfaced; the memory entry stays
// either way.
func (c *Cache) store(key string, cmp *core.Comparison) error {
	hash := hashKey(key)
	c.mu.Lock()
	c.mem[hash] = cmp
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	raw, err := json.Marshal(cacheEntry{Schema: cacheSchema, Key: key, RU: &cmp.RU.Result.Record, Gather: &cmp.Gather.Result.Record})
	if err != nil {
		// A result JSON cannot carry (a NaN) is uncacheable on disk, not
		// wrong.
		return nil
	}
	// Write-then-rename so a crashed or concurrent sweep never leaves a
	// torn entry under the content-addressed name.
	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	c.mu.Lock()
	c.stats.BytesWritten += uint64(len(raw))
	c.mu.Unlock()
	return nil
}
