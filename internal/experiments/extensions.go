package experiments

import (
	"context"
	"fmt"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/systolic"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
)

// DataflowRow compares collection schemes under one dataflow.
type DataflowRow struct {
	Dataflow           string
	Layer              string
	Mesh               int
	LatencyImprovement float64
	PowerImprovement   float64
	RoundCycles        float64
}

// Dataflows compares the gather benefit under output-stationary and
// weight-stationary mappings (the paper's future-work question). Under WS
// all results emerge from the bottom row, concentrating the many-to-one
// traffic into a single buffer port.
func Dataflows(opts Options) ([]DataflowRow, error) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	var points []comparePoint
	var rows []DataflowRow
	for _, df := range []systolic.Dataflow{systolic.OutputStationary, systolic.WeightStationary} {
		for _, mesh := range opts.meshes() {
			points = append(points, comparePoint{mesh: mesh, layer: layer, mutate: func(o *core.Options) {
				o.MutateSystolic = func(s *systolic.Config) { s.Dataflow = df }
			}})
			rows = append(rows, DataflowRow{Dataflow: df.String(), Layer: layer.Name, Mesh: mesh})
		}
	}
	cmps, err := compareSweep(points, opts)
	if err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	for i, cmp := range cmps {
		rows[i].LatencyImprovement = cmp.LatencyImprovementPct
		rows[i].PowerImprovement = cmp.PowerImprovementPct
		rows[i].RoundCycles = cmp.Gather.Result.RoundCycles.Mean()
	}
	return rows, nil
}

// RenderDataflows formats the dataflow comparison.
func RenderDataflows(rows []DataflowRow) string {
	var b strings.Builder
	b.WriteString("Extension: gather benefit by dataflow (AlexNet Conv3)\n")
	fmt.Fprintf(&b, "%8s %8s %12s %10s %14s\n", "dataflow", "mesh", "latency%", "power%", "gather round")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %5dx%-2d %12.2f %10.2f %14.0f\n",
			r.Dataflow, r.Mesh, r.Mesh, r.LatencyImprovement, r.PowerImprovement, r.RoundCycles)
	}
	return b.String()
}

// MixedTrafficRow is one configuration of the mixed-traffic experiment.
type MixedTrafficRow struct {
	// Rate is the background injection rate (packets/node/cycle).
	Rate float64
	// DedicatedVC reports whether gather traffic had a reserved VC.
	DedicatedVC bool
	// GatherRound is the mean gather-mode round latency in cycles;
	// Collection is just the result-collection phase, where contention
	// with background traffic actually shows.
	GatherRound float64
	Collection  float64
	// SelfInitiated counts δ-timeout fallbacks.
	SelfInitiated uint64
}

// MixedTraffic evaluates the paper's conclusion scenario: gather collection
// sharing the network with unrelated background traffic, with and without
// a VC dedicated to gather packets ("to prevent the time out of δ when
// mixed with other traffic a separate VC can be allocated to the gather
// traffic", Sec. VI).
func MixedTraffic(opts Options) ([]MixedTrafficRow, error) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	var points []MixedTrafficRow
	for _, rate := range []float64{0, 0.05, 0.15} {
		for _, dedicated := range []bool{false, true} {
			points = append(points, MixedTrafficRow{Rate: rate, DedicatedVC: dedicated})
		}
	}
	rounds, err := opts.rounds()
	if err != nil {
		return nil, err
	}
	return Sweep(opts.ctx(), opts.Workers, points,
		func(_ context.Context, _ int, p MixedTrafficRow) (MixedTrafficRow, error) {
			return runMixed(layer, p.Rate, p.DedicatedVC, mixedSeed, rounds)
		})
}

// mixedSeed seeds the background traffic of every MixedTraffic point.
const mixedSeed = 7

// runMixed runs the first rounds rounds of one layer beside background
// traffic of the given rate and seed.
func runMixed(layer cnn.LayerConfig, rate float64, dedicated bool, seed int64, rounds int) (MixedTrafficRow, error) {
	cfg := noc.DefaultConfig(8, 8)
	if dedicated {
		cfg.Router.GatherVC = cfg.Router.VCs - 1
	}
	nw, err := noc.Acquire(cfg)
	if err != nil {
		return MixedTrafficRow{}, err
	}
	// With background traffic the run ends mid-flight and Release drops
	// the fabric; the rate-0 rows park theirs.
	defer nw.Release()

	ctl, err := systolic.NewController(nw, systolic.Config{
		Layer: layer, Mode: systolic.GatherMode, TMAC: cnn.TMAC, MaxRounds: rounds,
	})
	if err != nil {
		return MixedTrafficRow{}, err
	}

	// Two untagged workloads share the fabric, so the deliveries are split
	// by endpoint, not by tag: the layer's results eject at the sinks, the
	// background packets at the NICs.
	if rate > 0 {
		gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
			Pattern:       traffic.UniformRandom{Nodes: nw.Topology().NumNodes()},
			InjectionRate: rate,
			PacketFlits:   cfg.UnicastFlits,
			Warmup:        0,
			Measure:       1 << 40, // inject for the whole run
			Seed:          seed,
		})
		if err != nil {
			return MixedTrafficRow{}, err
		}
		for id := 0; id < nw.Topology().NumNodes(); id++ {
			nw.NIC(topology.NodeID(id)).OnReceive(gen.OnPacket)
		}
		gen.Start(0)
		nw.Engine().AddTicker(gen)
	}
	for row := 0; row < cfg.Rows; row++ {
		nw.Sink(row).OnReceive(ctl.OnPacket)
	}
	ctl.Start(0)
	if _, err := nw.Engine().RunWith(ctl, ctl.Drained, 50_000_000); err != nil {
		return MixedTrafficRow{}, fmt.Errorf("mixed rate=%v dedicated=%v: %w", rate, dedicated, err)
	}
	res := ctl.Result()
	if res.PayloadErrors != 0 {
		return MixedTrafficRow{}, fmt.Errorf("mixed rate=%v dedicated=%v: %d payload errors",
			rate, dedicated, res.PayloadErrors)
	}
	return MixedTrafficRow{
		Rate:          rate,
		DedicatedVC:   dedicated,
		GatherRound:   res.RoundCycles.Mean(),
		Collection:    res.CollectionCycles.Mean(),
		SelfInitiated: res.SelfInitiatedGathers,
	}, nil
}

// RenderMixedTraffic formats the mixed-traffic experiment.
func RenderMixedTraffic(rows []MixedTrafficRow) string {
	var b strings.Builder
	b.WriteString("Extension: gather under background traffic, shared vs dedicated gather VC\n")
	fmt.Fprintf(&b, "%8s %12s %14s %12s %10s\n", "rate", "gather VC", "gather round", "collection", "selfinit")
	for _, r := range rows {
		vc := "shared"
		if r.DedicatedVC {
			vc = "dedicated"
		}
		fmt.Fprintf(&b, "%8.3f %12s %14.1f %12.1f %10d\n",
			r.Rate, vc, r.GatherRound, r.Collection, r.SelfInitiated)
	}
	return b.String()
}
