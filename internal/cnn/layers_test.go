package cnn

import (
	"strings"
	"testing"
)

func TestAlexNetMatchesTableIII(t *testing.T) {
	layers := AlexNetConvLayers()
	if len(layers) != 5 {
		t.Fatalf("len = %d, want 5", len(layers))
	}
	tests := []struct {
		name    string
		c, q, r int
		out     int
	}{
		{"Conv1", 3, 64, 11, 55},
		{"Conv2", 64, 192, 5, 27},
		{"Conv3", 192, 384, 3, 13},
		{"Conv4", 384, 256, 3, 13},
		{"Conv5", 256, 256, 3, 13},
	}
	for i, tt := range tests {
		l := layers[i]
		if l.Name != tt.name || l.InChannels != tt.c || l.OutKernels != tt.q ||
			l.Kernel != tt.r || l.OutputSize != tt.out {
			t.Errorf("layer %d = %s, want %s %dx%d@%dx%d out %d",
				i, l, tt.name, tt.c, tt.q, tt.r, tt.r, tt.out)
		}
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestVGGSelectedMatchesTableIII(t *testing.T) {
	layers := VGG16SelectedConvLayers()
	if len(layers) != 4 {
		t.Fatalf("len = %d, want 4", len(layers))
	}
	tests := []struct {
		c, q, out int
	}{
		{64, 64, 224},
		{128, 128, 112},
		{256, 256, 56},
		{512, 512, 14},
	}
	for i, tt := range tests {
		l := layers[i]
		if l.InChannels != tt.c || l.OutKernels != tt.q || l.OutputSize != tt.out || l.Kernel != 3 {
			t.Errorf("layer %d = %s", i, l)
		}
	}
}

// shapeFormula applies the standard convolution shape formula
// ⌊(H + 2·pad − R)/stride⌋ + 1 to a layer's input side.
func shapeFormula(l LayerConfig) int {
	return (l.InputSize+2*l.Pad-l.Kernel)/l.Stride + 1
}

func TestShapeFormulaConsistent(t *testing.T) {
	// Every published layer's OutputSize must satisfy the standard
	// convolution shape formula (the cross-check that replaces the
	// paper's PyTorch extraction).
	all := append(AlexNetConvLayers(), VGG16SelectedConvLayers()...)
	all = append(all, VGG16AllConvLayers()...)
	for _, l := range all {
		if got := shapeFormula(l); got != l.OutputSize {
			t.Errorf("%s: shape formula gives %d, table says %d", l, got, l.OutputSize)
		}
	}
}

func TestMACsPerPE(t *testing.T) {
	l, ok := LayerByName(AlexNetConvLayers(), "Conv1")
	if !ok {
		t.Fatal("Conv1 missing")
	}
	if got := l.MACsPerPE(); got != 363 { // 3*11*11
		t.Errorf("C·R·R = %d, want 363", got)
	}
	l2, _ := LayerByName(AlexNetConvLayers(), "Conv3")
	if got := l2.MACsPerPE(); got != 1728 { // 192*9
		t.Errorf("C·R·R = %d, want 1728", got)
	}
}

func TestRounds(t *testing.T) {
	l, _ := LayerByName(AlexNetConvLayers(), "Conv1")
	// P = 55*55 = 3025, Q = 64; 8x8: ceil(3025/8)*ceil(64/8) = 379*8.
	if got := l.Rounds(8, 8); got != 379*8 {
		t.Errorf("Rounds(8,8) = %d, want %d", got, 379*8)
	}
	if got := l.Rounds(16, 16); got != 190*4 {
		t.Errorf("Rounds(16,16) = %d, want %d", got, 190*4)
	}
	if got := l.Rounds(0, 8); got != 0 {
		t.Errorf("Rounds(0,8) = %d, want 0", got)
	}
}

func TestTotalMACs(t *testing.T) {
	l, _ := LayerByName(AlexNetConvLayers(), "Conv1")
	// P·Q·C·R·R: 55x55 outputs, 64 kernels, 3x11x11 MACs each.
	want := int64(3025) * 64 * 363
	if got := int64(l.OutputPositions()) * int64(l.OutKernels) * int64(l.MACsPerPE()); got != want {
		t.Errorf("total MACs = %d, want %d", got, want)
	}
}

func TestVGG16AllLayersPlausible(t *testing.T) {
	layers := VGG16AllConvLayers()
	if len(layers) != 13 {
		t.Fatalf("len = %d, want 13", len(layers))
	}
	// The paper's selected layers 2,4,6,13 must match the full list.
	sel := VGG16SelectedConvLayers()
	for i, idx := range []int{1, 3, 5, 12} {
		a, b := sel[i], layers[idx]
		if a.InChannels != b.InChannels || a.OutKernels != b.OutKernels || a.OutputSize != b.OutputSize {
			t.Errorf("selected layer %d != full list layer %d: %s vs %s", i, idx, a, b)
		}
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	bad := []LayerConfig{
		{Model: "m", Name: "x", InChannels: 0, OutKernels: 1, Kernel: 3, OutputSize: 4, Stride: 1},
		{Model: "m", Name: "x", InChannels: 1, OutKernels: 1, Kernel: 0, OutputSize: 4, Stride: 1},
		{Model: "m", Name: "x", InChannels: 1, OutKernels: 1, Kernel: 3, OutputSize: 0, Stride: 1},
		{Model: "m", Name: "x", InChannels: 1, OutKernels: 1, Kernel: 3, OutputSize: 4, Stride: 0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layer %d accepted", i)
		}
	}
}

func TestLayerByNameMissing(t *testing.T) {
	if _, ok := LayerByName(AlexNetConvLayers(), "Conv9"); ok {
		t.Error("found nonexistent layer")
	}
}

func TestStringFormat(t *testing.T) {
	l, _ := LayerByName(AlexNetConvLayers(), "Conv1")
	s := l.String()
	for _, frag := range []string{"AlexNet", "Conv1", "3x64@11x11", "64@55x55"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestAccumulationRounds(t *testing.T) {
	l := LayerConfig{Model: "x", Name: "x", InChannels: 8, OutKernels: 10,
		Kernel: 3, InputSize: 6, OutputSize: 6, Stride: 1, Pad: 1}
	// P·Q = 36·10 = 360 outputs over 8 rows: ⌈360/8⌉ = 45 rounds.
	if got := l.AccumulationRounds(8); got != 45 {
		t.Errorf("AccumulationRounds(8) = %d, want 45", got)
	}
	if got := l.AccumulationRounds(7); got != 52 {
		t.Errorf("AccumulationRounds(7) = %d, want ceil(360/7)=52", got)
	}
	if got := l.AccumulationRounds(0); got != 0 {
		t.Errorf("AccumulationRounds(0) = %d, want 0", got)
	}
}

func TestPartialMACsPerPE(t *testing.T) {
	l := LayerConfig{InChannels: 8, Kernel: 3} // C·R·R = 72
	if got := l.PartialMACsPerPE(8); got != 9 {
		t.Errorf("PartialMACsPerPE(8) = %d, want 9", got)
	}
	if got := l.PartialMACsPerPE(7); got != 11 {
		t.Errorf("PartialMACsPerPE(7) = %d, want ceil(72/7)=11", got)
	}
	if got := l.PartialMACsPerPE(0); got != 0 {
		t.Errorf("PartialMACsPerPE(0) = %d, want 0", got)
	}
}
