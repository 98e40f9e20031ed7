package experiments

import (
	"fmt"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/systolic"
)

// AblationRow is one point of a parameter sweep.
type AblationRow struct {
	// Param names the swept parameter; Value is its setting.
	Param string
	Value int
	// LatencyImprovement and PowerImprovement are gather-vs-RU (%).
	LatencyImprovement float64
	PowerImprovement   float64
	// SelfInitiated counts δ-timeout fallbacks in the gather run.
	SelfInitiated uint64
}

func ablationLayer() cnn.LayerConfig {
	l, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	return l
}

// sweep compares gather against RU on AlexNet Conv3 at 8x8 once per value,
// with mutate applying the value to the run options.
func sweep(param string, values []int, opts Options, mutate func(v int, o *core.Options)) ([]AblationRow, error) {
	points := make([]comparePoint, len(values))
	for i, v := range values {
		points[i] = comparePoint{mesh: 8, layer: ablationLayer(), mutate: func(o *core.Options) { mutate(v, o) }}
	}
	cmps, err := compareSweep(points, opts)
	if err != nil {
		return nil, fmt.Errorf("ablation %s: %w", param, err)
	}
	rows := make([]AblationRow, len(values))
	for i, cmp := range cmps {
		rows[i] = AblationRow{
			Param: param, Value: values[i],
			LatencyImprovement: cmp.LatencyImprovementPct,
			PowerImprovement:   cmp.PowerImprovementPct,
			SelfInitiated:      cmp.Gather.Result.SelfInitiatedGathers,
		}
	}
	return rows, nil
}

// AblationDelta sweeps a flat δ timeout (the literal Table I policy,
// without per-column scaling). Small values force PEs to self-initiate
// before the row's gather packet arrives — the failure mode discussed in
// DESIGN.md §3; large values restore single-packet-per-row collection.
func AblationDelta(opts Options) ([]AblationRow, error) {
	return sweep("delta", []int{0, 1, 2, 5, 10, 20, 40}, opts, func(v int, o *core.Options) {
		o.MutateNetwork = func(c *noc.Config) { c.Delta = int64(v) }
		o.MutateSystolic = func(s *systolic.Config) { s.FlatDelta = true }
	})
}

// AblationEta sweeps the gather packet capacity η: below the row width,
// several gather packets per row are needed (Eq. 3's ⌈M/η⌉ sum).
func AblationEta(opts Options) ([]AblationRow, error) {
	return sweep("eta", []int{2, 4, 8, 16}, opts, func(v int, o *core.Options) {
		o.MutateNetwork = func(c *noc.Config) { c.GatherCapacity = v }
	})
}

// AblationBufferDepth sweeps the per-VC buffer depth. Depth 2, shorter
// than the 4-flit gather packet, is the one setting the paper's operating
// point feels; the knobs it does not feel (VC count, a dedicated gather
// VC, west-first routing) are held to that in invariance_test.go.
func AblationBufferDepth(opts Options) ([]AblationRow, error) {
	return sweep("depth", []int{2, 4, 8}, opts, func(v int, o *core.Options) {
		o.MutateNetwork = func(c *noc.Config) { c.Router.BufferDepth = v }
	})
}

// AblationSinkCost sweeps the global buffer's per-packet transaction
// overhead — the substitution DESIGN.md §3 documents. At 0 the wormhole
// pipeline absorbs RU traffic and the gather latency advantage vanishes
// (energy advantage remains).
func AblationSinkCost(opts Options) ([]AblationRow, error) {
	return sweep("sinkcost", []int{0, 2, 5, 10}, opts, func(v int, o *core.Options) {
		o.MutateNetwork = func(c *noc.Config) { c.SinkPacketOverhead = int64(v) }
	})
}

// AblationSkew sweeps the PE completion stagger per hop of systolic
// distance. Stagger spreads RU injections, but a per-hop stagger equal to
// κ makes a row's packets arrive at the buffer simultaneously (the stagger
// exactly cancels the hop-distance head start), maximizing the per-packet
// transaction serialization — so the gather advantage grows toward
// skew = κ rather than eroding monotonically.
func AblationSkew(opts Options) ([]AblationRow, error) {
	return sweep("skew", []int{0, 1, 2, 4}, opts, func(v int, o *core.Options) {
		o.MutateSystolic = func(s *systolic.Config) { s.SkewPerHop = v }
	})
}

// RenderAblation formats a sweep.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	fmt.Fprintf(&b, "%10s %10s %10s %10s\n", "value", "latency%", "power%", "selfinit")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10.2f %10.2f %10d\n",
			r.Value, r.LatencyImprovement, r.PowerImprovement, r.SelfInitiated)
	}
	return b.String()
}
