package experiments

import (
	"fmt"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/power"
)

// ModelLayerRow is one layer of a whole-model run.
type ModelLayerRow struct {
	Layer              string
	Kind               string
	RUCycles           int64
	GatherCycles       int64
	LatencyImprovement float64
	PowerImprovement   float64
}

// ModelResult aggregates a complete network execution, layer by layer.
type ModelResult struct {
	Model  string
	Mesh   int
	Layers []ModelLayerRow
	// Totals over the whole model (extrapolated cycles; energy scaled to
	// full layers).
	RUTotalCycles      int64
	GatherTotalCycles  int64
	RUTotalPJ          float64
	GatherTotalPJ      float64
	LatencyImprovement float64
	PowerImprovement   float64
}

// FullAlexNet executes the complete AlexNet layer sequence — convolution,
// pooling and fully-connected layers — in both collection modes and
// aggregates whole-model latency and energy. This is the paper's
// future-work target ("accelerate the complete CNN model", Sec. VI).
func FullAlexNet(mesh int, opts Options) (*ModelResult, error) {
	return fullModel("AlexNet", cnn.AlexNetAllLayers(), mesh, opts)
}

// FullVGG16 executes the complete VGG-16 layer sequence (13 conv, 5 pool,
// 3 fc).
func FullVGG16(mesh int, opts Options) (*ModelResult, error) {
	return fullModel("VGG-16", cnn.VGG16AllLayers(), mesh, opts)
}

// fullModel sweeps the layers, then sums in layer order, so the float
// totals are the same bits whatever the worker count.
func fullModel(name string, layers []cnn.LayerConfig, mesh int, opts Options) (*ModelResult, error) {
	cmps, err := compareSweep(comparePoints(layers, []int{mesh}), opts)
	if err != nil {
		return nil, fmt.Errorf("full model %s: %w", name, err)
	}
	res := &ModelResult{Model: name, Mesh: mesh, Layers: make([]ModelLayerRow, len(layers))}
	coeff := power.DefaultCoefficients()
	for i, cmp := range cmps {
		ruE := power.Compute(cmp.RU.Events.Scale(cmp.RU.Result.ScaleFactor()), coeff, 0, 0)
		gE := power.Compute(cmp.Gather.Events.Scale(cmp.Gather.Result.ScaleFactor()), coeff, 0, 0)
		res.Layers[i] = ModelLayerRow{
			Layer:              layers[i].Name,
			Kind:               layers[i].Kind.String(),
			RUCycles:           cmp.RU.Result.TotalCycles,
			GatherCycles:       cmp.Gather.Result.TotalCycles,
			LatencyImprovement: cmp.LatencyImprovementPct,
			PowerImprovement:   cmp.PowerImprovementPct,
		}
		res.RUTotalCycles += cmp.RU.Result.TotalCycles
		res.GatherTotalCycles += cmp.Gather.Result.TotalCycles
		res.RUTotalPJ += ruE.NoCPJ
		res.GatherTotalPJ += gE.NoCPJ
	}
	if res.GatherTotalCycles > 0 {
		res.LatencyImprovement = float64(res.RUTotalCycles-res.GatherTotalCycles) /
			float64(res.GatherTotalCycles) * 100
	}
	res.PowerImprovement = power.ImprovementPercent(res.RUTotalPJ, res.GatherTotalPJ)
	return res, nil
}

// RenderModel formats a whole-model run.
func RenderModel(r *ModelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: complete %s on %dx%d mesh (conv + pool + fc)\n", r.Model, r.Mesh, r.Mesh)
	fmt.Fprintf(&b, "%-8s %-6s %14s %14s %10s %10s\n",
		"layer", "kind", "RU cycles", "gather cycles", "latency%", "power%")
	for _, l := range r.Layers {
		fmt.Fprintf(&b, "%-8s %-6s %14d %14d %10.2f %10.2f\n",
			l.Layer, l.Kind, l.RUCycles, l.GatherCycles, l.LatencyImprovement, l.PowerImprovement)
	}
	fmt.Fprintf(&b, "%-8s %-6s %14d %14d %10.2f %10.2f\n",
		"TOTAL", "", r.RUTotalCycles, r.GatherTotalCycles, r.LatencyImprovement, r.PowerImprovement)
	return b.String()
}
