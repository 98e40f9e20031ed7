package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/power"
	"gathernoc/internal/stats"
	"gathernoc/internal/systolic"
)

// cacheOpts is the smallest real sweep: AlexNet's five layers, whole, on
// one 4x4 mesh.
func cacheOpts(c *Cache) Options {
	return Options{Meshes: []int{4}, Cache: c}
}

// The unit tests store one real cell: AlexNet Conv1 on a 4x4 mesh, one
// simulated round. testdata/entry-v1.json is its entry in the v1 format.
var (
	testLayer = cnn.AlexNetConvLayers()[0]
	testOpts  = core.Options{Rounds: 1}
)

// testDerive derives the test cell's comparison from its two runs.
func testDerive(ru, g *systolic.Result) *core.Comparison {
	return core.Compare(4, 4, testLayer, testOpts, ru, g)
}

var testCell = sync.OnceValues(func() (*core.Comparison, error) {
	return core.CompareLayer(4, 4, testLayer, testOpts)
})

// testComparison is the test cell's comparison, simulated once per test
// binary and shared read-only.
func testComparison(t testing.TB) *core.Comparison {
	t.Helper()
	cmp, err := testCell()
	if err != nil {
		t.Fatal(err)
	}
	return cmp
}

func TestCacheMemoryRoundTrip(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.lookup("k", testDerive); ok {
		t.Fatal("empty cache hit")
	}
	want := testComparison(t)
	if err := c.store("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.lookup("k", testDerive)
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
	want := testComparison(t)
	if err := c1.store("key-a", want); err != nil {
		t.Fatal(err)
	}
	written := c1.Stats().BytesWritten
	if written == 0 {
		t.Fatal("store wrote no entry file")
	}

	// A fresh instance over the same directory must serve the entry: one
	// file read and derivation, then memory hits sharing the derived value.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.lookup("key-a", testDerive)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk lookup = %+v, %v; want %+v", got, ok, want)
	}
	again, ok := c2.lookup("key-a", testDerive)
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
	if err := c1.store("key-a", testComparison(t)); err != nil {
		t.Fatal(err)
	}
	// Overwrite the entry with a different schema: a fresh instance must
	// report it stale and miss, not decode it.
	writeEntry(t, c1, "key-a", `{"Schema":"other/v9","Key":"key-a","RU":{},"Gather":{}}`)
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.lookup("key-a", testDerive); ok {
		t.Fatal("foreign-schema entry served")
	}
	if s := c2.Stats(); s != (CacheStats{Misses: 1, Stale: 1}) {
		t.Fatalf("stats = %+v, want 1 stale / 1 miss", s)
	}
}

// TestCacheUndecodableResultIsAMiss: an entry whose envelope matches but
// whose RU record is not a record is one stale miss, recomputed and
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
	e["RU"] = json.RawMessage(`[1]`)
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
	if err := c1.store("key-a", testComparison(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(c1.path(hashKey("key-a"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.lookup("key-a", testDerive); !ok {
		t.Fatal("memory layer lost the entry with its file")
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.lookup("key-a", testDerive); ok {
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
// schema and key match exactly and whose RU and Gather records both
// decode; anything else (a v1 entry among them) is exactly one stale and
// one miss.
func FuzzCacheEntry(f *testing.F) {
	const key = "fuzz-key"
	cmp := testComparison(f)
	valid, err := json.Marshal(cacheEntry{Schema: cacheSchema, Key: key, RU: &cmp.RU.Result.Record, Gather: &cmp.Gather.Result.Record})
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "entry-v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	envelope := func(schema, key, record string) string {
		return fmt.Sprintf(`{"Schema":%q,"Key":%q,"RU":%s,"Gather":%s}`, schema, key, record, record)
	}
	for _, seed := range []string{
		string(valid),
		string(valid[:len(valid)/2]),
		envelope("other/v9", key, "{}"),
		envelope(cacheSchema, "other-key", "{}"),
		envelope(cacheSchema, key, "null"),
		envelope(cacheSchema, key, "[1]"),
		string(v1),
		fmt.Sprintf(`{"Schema":%q,"Key":%q,"RU":{}}`, cacheSchema, key),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := NewCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		writeEntry(t, c, key, string(in))
		cmp, ok := c.lookup(key, testDerive)
		var e cacheEntry
		valid := json.Unmarshal(in, &e) == nil && e.Schema == cacheSchema && e.Key == key && e.RU != nil && e.Gather != nil
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

// TestCacheV1EntryIsOneStaleMiss: a directory primed before the entry held
// only Records degrades to one recompute per entry. The v1 file is one
// stale miss, the cell is recomputed and rewritten in the current format,
// and the next fresh Cache hits it.
func TestCacheV1EntryIsOneStaleMiss(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "entry-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := core.ComparisonKey(4, 4, testLayer, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	var old struct{ Schema, Key string }
	if err := json.Unmarshal(raw, &old); err != nil || old.Schema != "gathernoc/experiments.Cache/v1" || old.Key != key {
		t.Fatalf("fixture is not the test cell's v1 entry: schema %q, err %v, key match %v", old.Schema, err, old.Key == key)
	}
	want := testComparison(t)

	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeEntry(t, c1, key, string(raw))
	got, err := compareCached(c1, 4, testLayer, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recomputed comparison differs from CompareLayer's")
	}
	if s := c1.Stats(); s.Hits != 0 || s.Misses != 1 || s.Stale != 1 || s.BytesWritten == 0 {
		t.Fatalf("stats = %+v, want 1 stale miss and a rewrite", s)
	}
	rewritten, err := os.ReadFile(c1.path(hashKey(key)))
	if err != nil {
		t.Fatal(err)
	}
	var e cacheEntry
	if err := json.Unmarshal(rewritten, &e); err != nil || e.Schema != cacheSchema || e.RU == nil || e.Gather == nil {
		t.Fatalf("entry not rewritten in the current format: schema %q, err %v", e.Schema, err)
	}
	if len(rewritten) >= len(raw) {
		t.Errorf("current entry is %d bytes, v1 was %d", len(rewritten), len(raw))
	}

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err = compareCached(c2, 4, testLayer, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("disk hit differs from CompareLayer's comparison")
	}
	if s := c2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("fresh-instance stats = %+v, want 1 hit", s)
	}
}

// TestCacheDiskHitEqualsCompareLayer is the derivation contract: a cell
// served from disk by a fresh Cache — its Records decoded, everything else
// rebuilt by core.Compare — equals what core.CompareLayer returns,
// configuration echoes, samples and energy reports (to the bit) included.
func TestCacheDiskHitEqualsCompareLayer(t *testing.T) {
	type cell struct {
		name  string
		mesh  int
		layer cnn.LayerConfig
		opts  core.Options
	}
	var cells []cell
	for _, l := range cnn.AlexNetConvLayers() {
		cells = append(cells, cell{"table2 " + l.Name, 8, l, core.Options{Rounds: 1}})
	}
	cells = append(cells,
		cell{"fig8", 8, cnn.VGG16SelectedConvLayers()[0], core.Options{Rounds: 1}},
		cell{"ablation delta=5", 8, ablationLayer(), core.Options{Rounds: 1,
			MutateNetwork:  func(c *noc.Config) { c.Delta = 5 },
			MutateSystolic: func(s *systolic.Config) { s.FlatDelta = true }}},
		cell{"weight stationary", 4, testLayer, core.Options{Rounds: 1,
			MutateSystolic: func(s *systolic.Config) { s.Dataflow = systolic.WeightStationary }}},
	)
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			want, err := core.CompareLayer(c.mesh, c.mesh, c.layer, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			cold, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := compareCached(cold, c.mesh, c.layer, c.opts); err != nil {
				t.Fatal(err)
			}
			warm, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := compareCached(warm, c.mesh, c.layer, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := warm.Stats(); s.Hits != 1 || s.BytesRead == 0 {
				t.Fatalf("stats = %+v, want one disk hit", s)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("disk hit differs from CompareLayer:\n got %+v\nwant %+v", got, want)
			}
			for _, pair := range [][2]*core.LayerReport{{got.RU, want.RU}, {got.Gather, want.Gather}} {
				if !sameBits(pair[0].Energy, pair[1].Energy) {
					t.Errorf("energy report %+v is not bit-identical to %+v", pair[0].Energy, pair[1].Energy)
				}
			}
		})
	}
}

// compareCached is one cell's comparison through compareSweep with cache:
// core.CompareLayer's on a mesh×mesh fabric with run options o, looked up
// first and stored on a miss.
func compareCached(cache *Cache, mesh int, layer cnn.LayerConfig, o core.Options) (*core.Comparison, error) {
	cmps, err := compareSweep([]comparePoint{{mesh: mesh, layer: layer, mutate: func(p *core.Options) { *p = o }}},
		Options{Workers: 1, Cache: cache})
	if err != nil {
		return nil, err
	}
	return cmps[0], nil
}

// sameBits reports whether two structs of float and integer fields hold
// the same bit patterns field by field.
func sameBits(a, b power.Report) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Int() != fb.Int() {
			return false
		}
	}
	return true
}

const (
	stored  = "stored in the record"
	derived = "derived or echoed by core.Compare"
)

// entryFields classifies every field a cache hit returns: stored fields
// travel in the entry's Records (RU, Gather and a LayerReport's Result
// carry them), derived ones are computed by core.Compare from the lookup's
// own inputs. A field added to any of these types fails
// TestCacheEntryFieldsClassified until it is listed here, so it cannot
// silently fall out of a cache hit.
var entryFields = map[reflect.Type]map[string]string{
	reflect.TypeOf(core.Comparison{}): {
		"RU": stored, "Gather": stored,
		"LatencyImprovementPct": derived, "PowerImprovementPct": derived, "EstimatedImprovementPct": derived,
	},
	reflect.TypeOf(core.LayerReport{}): {
		"Result": stored, "Events": derived, "Energy": derived, "NetworkConfig": derived,
	},
	reflect.TypeOf(systolic.Result{}): {
		"Record": stored,
		"Layer":  derived, "Mode": derived, "Dataflow": derived, "Rows": derived, "Cols": derived,
	},
	reflect.TypeOf(systolic.Record{}): {
		"TotalRounds": stored, "MeasuredCycles": stored,
		"RoundCycles": stored, "CollectionCycles": stored,
		"Activity": stored, "StreamHops": stored, "MACs": stored,
		"SelfInitiatedGathers": stored, "PiggybackAcks": stored, "PayloadErrors": stored,
	},
}

// TestCacheEntryFieldsClassified checks entryFields against the types and
// against the code: every stored leaf, perturbed, survives an entry file
// written by one Cache and read by a fresh one; every derived field is
// rebuilt by core.Compare from Records alone, and a derived echo left
// wrong in a Result is overwritten.
func TestCacheEntryFieldsClassified(t *testing.T) {
	for typ, classes := range entryFields {
		for i := 0; i < typ.NumField(); i++ {
			if _, ok := classes[typ.Field(i).Name]; !ok {
				t.Errorf("%s.%s is neither stored nor derived: classify it in entryFields", typ, typ.Field(i).Name)
			}
		}
		if len(classes) != typ.NumField() {
			t.Errorf("entryFields lists %d fields of %s, which has %d", len(classes), typ, typ.NumField())
		}
	}
	want := testComparison(t)
	key, err := core.ComparisonKey(4, 4, testLayer, testOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Stored: each leaf of the RU record, perturbed, comes back from disk.
	forLeaves(reflect.TypeOf(systolic.Record{}), nil, func(name string, path []int) {
		rec := want.RU.Result.Record
		if !perturb(reflect.ValueOf(&rec).Elem().FieldByIndex(path)) {
			t.Fatalf("cannot perturb stored field %s", name)
		}
		cmp := *want
		cmp.RU = &core.LayerReport{Result: &systolic.Result{Record: rec}}
		dir := t.TempDir()
		c1, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c1.store(key, &cmp); err != nil {
			t.Fatal(err)
		}
		c2, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c2.lookup(key, testDerive)
		if !ok || !reflect.DeepEqual(got.RU.Result.Record, rec) {
			t.Errorf("stored field %s did not survive the entry file", name)
		}
	})

	// Derived: Compare over echo-free Records rebuilds each derived field.
	records := func() (ru, g *systolic.Result) {
		return &systolic.Result{Record: want.RU.Result.Record}, &systolic.Result{Record: want.Gather.Result.Record}
	}
	ru, g := records()
	got := testDerive(ru, g)
	check := func(typ reflect.Type, gotV, wantV reflect.Value) {
		for name, class := range entryFields[typ] {
			if class == derived && !reflect.DeepEqual(gotV.FieldByName(name).Interface(), wantV.FieldByName(name).Interface()) {
				t.Errorf("derived field %s.%s not rebuilt by core.Compare", typ, name)
			}
		}
	}
	check(reflect.TypeOf(core.Comparison{}), reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem())
	for _, pair := range [][2]*core.LayerReport{{got.RU, want.RU}, {got.Gather, want.Gather}} {
		check(reflect.TypeOf(core.LayerReport{}), reflect.ValueOf(pair[0]).Elem(), reflect.ValueOf(pair[1]).Elem())
		check(reflect.TypeOf(systolic.Result{}), reflect.ValueOf(pair[0].Result).Elem(), reflect.ValueOf(pair[1].Result).Elem())
	}
	// A wrong echo is overwritten, not kept.
	for name, class := range entryFields[reflect.TypeOf(systolic.Result{})] {
		if class != derived {
			continue
		}
		ru, g := records()
		if !perturb(reflect.ValueOf(ru).Elem().FieldByName(name)) {
			t.Fatalf("cannot perturb derived field %s", name)
		}
		if got := testDerive(ru, g); !reflect.DeepEqual(got.RU.Result, want.RU.Result) {
			t.Errorf("core.Compare kept a wrong %s echo", name)
		}
	}
}

// forLeaves calls fn for every leaf field of a struct type, descending
// into nested structs; a stats.Sample is a leaf.
func forLeaves(typ reflect.Type, path []int, fn func(name string, path []int)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		p := append(append([]int(nil), path...), i)
		if f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(stats.Sample{}) {
			forLeaves(f.Type, p, fn)
			continue
		}
		fn(f.Name, p)
	}
}

// perturb changes v to a different value of its type: a number grows by
// one, a sample gains an observation, a struct has every field perturbed.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		if s, ok := v.Addr().Interface().(*stats.Sample); ok {
			// A copy, observed into: the copy of a Sample value shares
			// its count table.
			var c stats.Sample
			if raw, err := json.Marshal(s); err != nil || json.Unmarshal(raw, &c) != nil {
				return false
			}
			c.Observe(3)
			*s = c
			return true
		}
		for i := 0; i < v.NumField(); i++ {
			if !perturb(v.Field(i)) {
				return false
			}
		}
	default:
		return false
	}
	return true
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
