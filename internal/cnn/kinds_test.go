package cnn

import "testing"

func TestLayerKindStreamFactor(t *testing.T) {
	tests := []struct {
		kind LayerKind
		want int
	}{
		{Conv, 2}, {Pool, 1}, {FullyConnected, 2},
	}
	for _, tt := range tests {
		if got := tt.kind.StreamFactor(); got != tt.want {
			t.Errorf("%s.StreamFactor() = %d, want %d", tt.kind, got, tt.want)
		}
	}
}

func TestLayerKindString(t *testing.T) {
	if Conv.String() != "conv" || Pool.String() != "pool" || FullyConnected.String() != "fc" {
		t.Error("kind names wrong")
	}
}

func TestAlexNetPoolLayersShapes(t *testing.T) {
	layers := AlexNetPoolLayers()
	if len(layers) != 3 {
		t.Fatalf("len = %d, want 3", len(layers))
	}
	// 3x3 stride-2 pooling halves AlexNet's spatial dims: 55->27->13->6.
	wants := []struct{ in, out, q int }{
		{55, 27, 64}, {27, 13, 192}, {13, 6, 256},
	}
	for i, w := range wants {
		l := layers[i]
		if l.Kind != Pool {
			t.Errorf("%s: kind = %s", l.Name, l.Kind)
		}
		if l.InputSize != w.in || l.OutputSize != w.out || l.OutKernels != w.q {
			t.Errorf("%s: %d->%d @%d, want %d->%d @%d",
				l.Name, l.InputSize, l.OutputSize, l.OutKernels, w.in, w.out, w.q)
		}
		if got := shapeFormula(l); got != l.OutputSize {
			t.Errorf("%s: shape formula gives %d", l.Name, got)
		}
		if got := l.MACsPerPE(); got != 9 {
			t.Errorf("%s: ops per output = %d, want 9 (3x3 window)", l.Name, got)
		}
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestAlexNetFCLayersShapes(t *testing.T) {
	layers := AlexNetFCLayers()
	wants := []struct{ in, out int }{
		{9216, 4096}, {4096, 4096}, {4096, 1000},
	}
	for i, w := range wants {
		l := layers[i]
		if l.Kind != FullyConnected {
			t.Errorf("%s: kind = %s", l.Name, l.Kind)
		}
		if l.InChannels != w.in || l.OutKernels != w.out {
			t.Errorf("%s: %dx%d, want %dx%d", l.Name, l.InChannels, l.OutKernels, w.in, w.out)
		}
		if l.MACsPerPE() != w.in {
			t.Errorf("%s: MACs per output = %d, want %d", l.Name, l.MACsPerPE(), w.in)
		}
		if l.OutputPositions() != 1 {
			t.Errorf("%s: P = %d, want 1", l.Name, l.OutputPositions())
		}
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
	// FC6 on 8x8: ceil(1/8)*ceil(4096/8) = 512 rounds.
	if got := layers[0].Rounds(8, 8); got != 512 {
		t.Errorf("FC6 rounds = %d, want 512", got)
	}
}

func TestAlexNetAllLayersSequence(t *testing.T) {
	all := AlexNetAllLayers()
	if len(all) != 11 {
		t.Fatalf("len = %d, want 11 (5 conv + 3 pool + 3 fc)", len(all))
	}
	wantOrder := []string{
		"Conv1", "Pool1", "Conv2", "Pool2", "Conv3", "Conv4", "Conv5", "Pool5", "FC6", "FC7", "FC8",
	}
	for i, name := range wantOrder {
		if all[i].Name != name {
			t.Errorf("position %d = %s, want %s", i, all[i].Name, name)
		}
	}
	// Spatial dims must chain: each layer's input is the previous
	// feature map's output (same-kind transitions).
	if all[1].InputSize != all[0].OutputSize {
		t.Errorf("Pool1 input %d != Conv1 output %d", all[1].InputSize, all[0].OutputSize)
	}
	if all[3].InputSize != all[2].OutputSize {
		t.Errorf("Pool2 input %d != Conv2 output %d", all[3].InputSize, all[2].OutputSize)
	}
	// FC6's fan-in is the flattened Pool5 output: 256 * 6 * 6.
	if all[8].InChannels != 256*6*6 {
		t.Errorf("FC6 fan-in = %d, want %d", all[8].InChannels, 256*6*6)
	}
}

func TestVGG16AllLayersSequence(t *testing.T) {
	all := VGG16AllLayers()
	if len(all) != 21 {
		t.Fatalf("len = %d, want 21 (13 conv + 5 pool + 3 fc)", len(all))
	}
	kinds := map[LayerKind]int{}
	for _, l := range all {
		kinds[l.Kind]++
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
		if got := shapeFormula(l); got != l.OutputSize {
			t.Errorf("%s: shape formula gives %d, config says %d", l.Name, got, l.OutputSize)
		}
	}
	if kinds[Conv] != 13 || kinds[Pool] != 5 || kinds[FullyConnected] != 3 {
		t.Errorf("kind mix = %v", kinds)
	}
	// VGG's classifier fan-in is the flattened 512x7x7 feature map.
	fc1, _ := LayerByName(all, "FC1")
	if fc1.InChannels != 512*7*7 {
		t.Errorf("FC1 fan-in = %d, want %d", fc1.InChannels, 512*7*7)
	}
	// Spatial chaining across the first block: conv 224 -> pool -> 112.
	if all[2].InputSize != 224 || all[2].OutputSize != 112 {
		t.Errorf("PoolA = %d->%d, want 224->112", all[2].InputSize, all[2].OutputSize)
	}
	if all[3].InputSize != all[2].OutputSize {
		t.Errorf("Conv2-1 input %d != PoolA output %d", all[3].InputSize, all[2].OutputSize)
	}
}
