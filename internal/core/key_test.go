package core

import (
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
)

func keyFor(t *testing.T, opts Options) string {
	t.Helper()
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	if !ok {
		t.Fatal("Conv3 missing")
	}
	key, err := ComparisonKey(8, 8, layer, opts)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestComparisonKeyNormalizesDefaults: spelling out the zero-value
// defaults must produce the same key as leaving them implicit, and a
// mutator that writes a field's default value must collide with no
// mutator at all — semantically identical runs share one cache entry.
func TestComparisonKeyNormalizesDefaults(t *testing.T) {
	implicit := keyFor(t, Options{})
	explicit := keyFor(t, Options{Rounds: 2})
	if implicit != explicit {
		t.Errorf("explicit defaults changed the key:\n%s\nvs\n%s", implicit, explicit)
	}
	noopMutated := keyFor(t, Options{MutateNetwork: func(c *noc.Config) {
		c.GatherCapacity = c.EffectiveGatherCapacity()
	}})
	if implicit != noopMutated {
		t.Errorf("default-writing mutator changed the key:\n%s\nvs\n%s", implicit, noopMutated)
	}
}

// TestComparisonKeySeparatesInputs: anything that changes the simulation
// must change the key.
func TestComparisonKeySeparatesInputs(t *testing.T) {
	base := keyFor(t, Options{})
	seen := map[string]string{"base": base}
	for name, opts := range map[string]Options{
		"rounds":  {Rounds: 3},
		"network": {MutateNetwork: func(c *noc.Config) { c.Router.VCs = 2 }},
	} {
		key := keyFor(t, opts)
		for prev, k := range seen {
			if key == k {
				t.Errorf("%s collides with %s", name, prev)
			}
		}
		seen[name] = key
	}

	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	other, err := ComparisonKey(8, 8, layer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("different layers share a key")
	}
	mesh, err := ComparisonKey(4, 4, mustLayer(t, "Conv3"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mesh == base {
		t.Error("different meshes share a key")
	}
}

func mustLayer(t *testing.T, name string) cnn.LayerConfig {
	t.Helper()
	l, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), name)
	if !ok {
		t.Fatalf("layer %s missing", name)
	}
	return l
}

// conv1Key is the key of AlexNet Conv1 on the 8x8 mesh at Options{Rounds:
// 1}, byte for byte. The T_MAC, cycle-budget and energy-model defaults are
// constants, not Options fields, but the key still spells them out. A
// change to these bytes moves every cache entry's path, so it is made on
// purpose, never as a side effect.
const conv1Key = `{"Version":"gathernoc/core.Comparison/v1","Rows":8,"Cols":8,` +
	`"NetworkHash":"3a0094a7ded1b418e166bb68d0181751e0d2e7ba285078d4ccf16a692f0084b0",` +
	`"RU":{"Layer":{"Model":"AlexNet","Name":"Conv1","Kind":0,"InChannels":3,"OutKernels":64,"Kernel":11,"InputSize":224,"OutputSize":55,"Stride":4,"Pad":2},` +
	`"Mode":1,"Dataflow":0,"TMAC":5,"MaxRounds":1,"FlatDelta":false,"SkewPerHop":0},` +
	`"Gather":{"Layer":{"Model":"AlexNet","Name":"Conv1","Kind":0,"InChannels":3,"OutKernels":64,"Kernel":11,"InputSize":224,"OutputSize":55,"Stride":4,"Pad":2},` +
	`"Mode":2,"Dataflow":0,"TMAC":5,"MaxRounds":1,"FlatDelta":false,"SkewPerHop":0},` +
	`"MaxCycles":50000000,` +
	`"Coefficients":{"BufferWrite":0.75,"BufferRead":0.65,"RouteCompute":0.08,"VAAllocation":0.12,"SAArbitration":0.1,` +
	`"CrossbarTraversal":1.2,"LinkTraversal":1.75,"GatherUpload":0.05,"ReduceMerge":0.18,"StreamHop":4.35,"MAC":0.9}}`

func TestComparisonKeyBytesPinned(t *testing.T) {
	key, err := ComparisonKey(8, 8, mustLayer(t, "Conv1"), Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if key != conv1Key {
		t.Errorf("key moved:\n got %s\nwant %s", key, conv1Key)
	}
}
