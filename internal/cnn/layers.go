// Package cnn models convolution-layer workloads: the shape algebra that
// determines how much data streams through the accelerator and the
// published layer parameters of AlexNet and VGG-16 (Table III of the
// paper), from which traffic traces and systolic schedules are derived.
//
// The paper used PyTorch only to read these shape parameters; they are
// reproduced here directly from Table III (and cross-checked against the
// standard model definitions by the shape tests).
package cnn

import "fmt"

// TMAC is the PE's multiply-accumulate latency in cycles (Table I: 5): a
// round's results are ready C·R·R + TMAC cycles after its operands start
// streaming.
const TMAC = 5

// LayerConfig describes one convolution layer mapped onto the output-
// stationary systolic array: P = OutputSize² input positions stream from
// the west edge, Q = OutKernels filter columns stream from the north edge,
// and every PE performs C·R·R multiply-accumulates per round (Sec. III-A).
type LayerConfig struct {
	// Model is the network name ("AlexNet", "VGG-16").
	Model string
	// Name is the layer label used in the paper's tables ("Conv1"...).
	Name string
	// Kind distinguishes convolution, pooling and fully-connected
	// mappings (zero value: Conv).
	Kind LayerKind
	// InChannels is C, the input channel count.
	InChannels int
	// OutKernels is Q, the number of filters (output channels).
	OutKernels int
	// Kernel is R, the filter's spatial size (R×R).
	Kernel int
	// InputSize is the input feature map's H (H×H).
	InputSize int
	// OutputSize is the output feature map's spatial size.
	OutputSize int
	// Stride and Pad are the convolution's stride and padding, used to
	// cross-check OutputSize against the standard shape formula.
	Stride int
	Pad    int
}

// Validate reports impossible layer shapes.
func (l LayerConfig) Validate() error {
	switch {
	case l.InChannels < 1 || l.OutKernels < 1:
		return fmt.Errorf("cnn %s/%s: channels %dx%d invalid", l.Model, l.Name, l.InChannels, l.OutKernels)
	case l.Kernel < 1:
		return fmt.Errorf("cnn %s/%s: kernel %d invalid", l.Model, l.Name, l.Kernel)
	case l.OutputSize < 1:
		return fmt.Errorf("cnn %s/%s: output size %d invalid", l.Model, l.Name, l.OutputSize)
	case l.Stride < 1:
		return fmt.Errorf("cnn %s/%s: stride %d invalid", l.Model, l.Name, l.Stride)
	}
	return nil
}

// MACsPerPE returns C·R·R, the multiply-accumulate count (and input/weight
// streaming cycle count) each PE performs per round.
func (l LayerConfig) MACsPerPE() int {
	return l.InChannels * l.Kernel * l.Kernel
}

// OutputPositions returns P, the number of output pixel positions.
func (l LayerConfig) OutputPositions() int {
	return l.OutputSize * l.OutputSize
}

// Rounds returns the number of systolic rounds ⌈P/N⌉·⌈Q/M⌉ needed on an
// N-row, M-column PE array (Eq. 2/3).
func (l LayerConfig) Rounds(rows, cols int) int64 {
	if rows < 1 || cols < 1 {
		return 0
	}
	p := (l.OutputPositions() + rows - 1) / rows
	q := (l.OutKernels + cols - 1) / cols
	return int64(p) * int64(q)
}

// AccumulationRounds returns the round count of the layer's accumulation
// phase under an input-channel-partitioned mapping on an N-row array: the
// C·R·R MACs of one output are split across a row's M PEs, each row
// completes one output per round and reduces its M partial sums into the
// global buffer, so the P·Q outputs take ⌈P·Q/N⌉ rounds. This is the
// many-to-one partial-sum traffic the in-network accumulation subsystem
// targets (DESIGN.md §5).
func (l LayerConfig) AccumulationRounds(rows int) int64 {
	if rows < 1 {
		return 0
	}
	total := int64(l.OutputPositions()) * int64(l.OutKernels)
	return (total + int64(rows) - 1) / int64(rows)
}

// PartialMACsPerPE returns ⌈C·R·R/M⌉, the per-PE compute time of one
// accumulation-phase round when the output's MACs are partitioned across
// the row's M columns.
func (l LayerConfig) PartialMACsPerPE(cols int) int {
	if cols < 1 {
		return 0
	}
	return (l.MACsPerPE() + cols - 1) / cols
}

// String renders the Table III notation, e.g. "3x64@11x11 -> 64@55x55".
func (l LayerConfig) String() string {
	return fmt.Sprintf("%s %s: %dx%d@%dx%d -> %d@%dx%d",
		l.Model, l.Name, l.InChannels, l.OutKernels, l.Kernel, l.Kernel,
		l.OutKernels, l.OutputSize, l.OutputSize)
}

// AlexNetConvLayers returns the five AlexNet convolution layers exactly as
// listed in Table III.
func AlexNetConvLayers() []LayerConfig {
	return []LayerConfig{
		{Model: "AlexNet", Name: "Conv1", InChannels: 3, OutKernels: 64, Kernel: 11, InputSize: 224, OutputSize: 55, Stride: 4, Pad: 2},
		{Model: "AlexNet", Name: "Conv2", InChannels: 64, OutKernels: 192, Kernel: 5, InputSize: 27, OutputSize: 27, Stride: 1, Pad: 2},
		{Model: "AlexNet", Name: "Conv3", InChannels: 192, OutKernels: 384, Kernel: 3, InputSize: 13, OutputSize: 13, Stride: 1, Pad: 1},
		{Model: "AlexNet", Name: "Conv4", InChannels: 384, OutKernels: 256, Kernel: 3, InputSize: 13, OutputSize: 13, Stride: 1, Pad: 1},
		{Model: "AlexNet", Name: "Conv5", InChannels: 256, OutKernels: 256, Kernel: 3, InputSize: 13, OutputSize: 13, Stride: 1, Pad: 1},
	}
}

// VGG16SelectedConvLayers returns the four VGG-16 convolution layers the
// paper evaluates (its Table III labels them Conv1–Conv4; they are VGG-16
// convolution layers 2, 4, 6 and 13).
func VGG16SelectedConvLayers() []LayerConfig {
	return []LayerConfig{
		{Model: "VGG-16", Name: "Conv1", InChannels: 64, OutKernels: 64, Kernel: 3, InputSize: 224, OutputSize: 224, Stride: 1, Pad: 1},
		{Model: "VGG-16", Name: "Conv2", InChannels: 128, OutKernels: 128, Kernel: 3, InputSize: 112, OutputSize: 112, Stride: 1, Pad: 1},
		{Model: "VGG-16", Name: "Conv3", InChannels: 256, OutKernels: 256, Kernel: 3, InputSize: 56, OutputSize: 56, Stride: 1, Pad: 1},
		{Model: "VGG-16", Name: "Conv4", InChannels: 512, OutKernels: 512, Kernel: 3, InputSize: 14, OutputSize: 14, Stride: 1, Pad: 1},
	}
}

// VGG16AllConvLayers returns all thirteen VGG-16 convolution layers
// (extension beyond the paper's selected subset).
func VGG16AllConvLayers() []LayerConfig {
	mk := func(name string, c, q, h int) LayerConfig {
		return LayerConfig{
			Model: "VGG-16", Name: name, InChannels: c, OutKernels: q,
			Kernel: 3, InputSize: h, OutputSize: h, Stride: 1, Pad: 1,
		}
	}
	return []LayerConfig{
		mk("Conv1-1", 3, 64, 224),
		mk("Conv1-2", 64, 64, 224),
		mk("Conv2-1", 64, 128, 112),
		mk("Conv2-2", 128, 128, 112),
		mk("Conv3-1", 128, 256, 56),
		mk("Conv3-2", 256, 256, 56),
		mk("Conv3-3", 256, 256, 56),
		mk("Conv4-1", 256, 512, 28),
		mk("Conv4-2", 512, 512, 28),
		mk("Conv4-3", 512, 512, 28),
		mk("Conv5-1", 512, 512, 14),
		mk("Conv5-2", 512, 512, 14),
		mk("Conv5-3", 512, 512, 14),
	}
}

// LayerByName finds a layer by its paper label in a layer list.
func LayerByName(layers []LayerConfig, name string) (LayerConfig, bool) {
	for _, l := range layers {
		if l.Name == name {
			return l, true
		}
	}
	return LayerConfig{}, false
}
