package experiments

import (
	"context"
	"fmt"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// INARow is one cell of the in-network-accumulation comparison: a layer's
// accumulation phase on a mesh under one collection scheme.
type INARow struct {
	Layer  string
	Mesh   int
	Scheme string
	// RoundCycles is the mean simulated round latency; TotalCycles the
	// whole-phase extrapolation.
	RoundCycles float64
	TotalCycles int64
	// SinkFlitsPerRow is the mean sink flit transactions per row
	// reduction; PacketLatency the mean end-to-end packet latency.
	SinkFlitsPerRow float64
	PacketLatency   float64
	// Merges counts in-network merges, SelfInitiated the δ fallbacks.
	Merges        uint64
	SelfInitiated uint64
	// LinkFlits is the total channel traffic; NoCPJ the network dynamic
	// energy of the simulated rounds (merge adders included).
	LinkFlits uint64
	NoCPJ     float64
	// Reduction accounts the wire work the merges avoided.
	Reduction stats.ReductionStats
}

// inaPoint is one (mesh, layer, scheme) cell of the INA sweep grid.
type inaPoint struct {
	mesh   int
	layer  cnn.LayerConfig
	scheme traffic.CollectScheme
}

// inaSchemes orders the comparison's collection schemes.
var inaSchemes = []traffic.CollectScheme{
	traffic.CollectUnicast, traffic.CollectGather, traffic.CollectINA,
}

// INAComparison runs the gather-vs-INA-vs-unicast comparison on the
// accumulation-phase workload (conv partial sums reduced across each mesh
// row) for AlexNet's convolution layers, one simulation point per (mesh,
// layer, scheme) on the sweep pool. The INA rows demonstrate the
// follow-on paper's claim: reducing partial sums inside the routers beats
// gathering them — fewer sink transactions, shorter packets, lower
// latency — at the cost of one adder event per merge.
func INAComparison(opts Options) ([]INARow, error) {
	layers := cnn.AlexNetConvLayers()
	meshes := opts.meshes()
	points := make([]inaPoint, 0, len(meshes)*len(layers)*len(inaSchemes))
	for _, mesh := range meshes {
		for _, layer := range layers {
			for _, scheme := range inaSchemes {
				points = append(points, inaPoint{mesh: mesh, layer: layer, scheme: scheme})
			}
		}
	}
	rows, err := Sweep(opts.ctx(), opts.Workers, points,
		func(_ context.Context, _ int, p inaPoint) (INARow, error) {
			return runINAPoint(p, opts)
		})
	if err != nil {
		return nil, fmt.Errorf("ina: %w", err)
	}
	return rows, nil
}

// runINAPoint executes one accumulation-phase run and projects its row.
func runINAPoint(p inaPoint, opts Options) (INARow, error) {
	cfg := noc.DefaultConfig(p.mesh, p.mesh)
	cfg.EnableINA = true
	nw, err := noc.Acquire(cfg)
	if err != nil {
		return INARow{}, err
	}
	defer nw.Release()
	ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
		Scheme:         p.scheme,
		Rounds:         opts.rounds(),
		TotalRounds:    p.layer.AccumulationRounds(p.mesh),
		ComputeLatency: p.layer.PartialMACsPerPE(p.mesh) + cnn.TMAC,
	})
	if err != nil {
		return INARow{}, err
	}
	cycles, err := workload.Run(nw, ctl, 50_000_000)
	if err != nil {
		return INARow{}, fmt.Errorf("%s %s %dx%d: %w", p.layer.Name, p.scheme, p.mesh, p.mesh, err)
	}
	res := ctl.Result(cycles)
	if res.OracleErrors != 0 {
		return INARow{}, fmt.Errorf("%s %s %dx%d: %d oracle errors",
			p.layer.Name, p.scheme, p.mesh, p.mesh, res.OracleErrors)
	}
	return INARow{
		Layer:           p.layer.Name,
		Mesh:            p.mesh,
		Scheme:          p.scheme.String(),
		RoundCycles:     res.RoundCycles.Mean(),
		TotalCycles:     res.TotalCycles,
		SinkFlitsPerRow: res.SinkFlitsPerRow(),
		PacketLatency:   res.PacketLatency.Mean(),
		Merges:          res.Merges,
		SelfInitiated:   res.SelfInitiated,
		LinkFlits:       res.Activity.LinkFlits,
		NoCPJ:           nocPJ(res.Activity, res.Cycles),
		Reduction:       res.Reduction,
	}, nil
}

// RenderINA formats the comparison as a layer-by-scheme table per mesh.
func RenderINA(rows []INARow) string {
	var b strings.Builder
	b.WriteString("Extension: accumulation-phase collection — unicast vs gather vs in-network accumulation\n")
	fmt.Fprintf(&b, "%8s %7s %8s %12s %10s %10s %8s %8s %12s\n",
		"layer", "mesh", "scheme", "round", "sinkflit/row", "pkt lat", "merges", "selfinit", "noc pJ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %4dx%-2d %8s %12.1f %10.2f %10.1f %8d %8d %12.0f\n",
			r.Layer, r.Mesh, r.Mesh, r.Scheme, r.RoundCycles,
			r.SinkFlitsPerRow, r.PacketLatency, r.Merges, r.SelfInitiated, r.NoCPJ)
	}
	return b.String()
}
