package experiments

import (
	"context"
	"fmt"
	"strings"

	"gathernoc/internal/analytic"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
)

// TopologyRow is one point of the topology × routing comparison: uniform
// random traffic at one injection rate on one fabric, with the measured
// latency/hop/throughput figures next to the fabric's analytic hop
// bounds.
type TopologyRow struct {
	Topology string
	Routing  string
	// Rate is the offered load in packets/node/cycle; Throughput the
	// accepted load over the measurement window.
	Rate       float64
	Throughput float64
	// AvgLatency is the mean end-to-end packet latency in cycles;
	// AvgNetworkLatency excludes source queueing.
	AvgLatency        float64
	AvgNetworkLatency float64
	// AvgHops is the measured mean link hops per packet; MeanHopBound and
	// MaxHopBound are the fabric's analytic expectation under uniform
	// traffic and its diameter. Minimal routing keeps AvgHops at the mean
	// bound regardless of load.
	AvgHops      float64
	MeanHopBound float64
	MaxHopBound  int
}

// topologyPoint is one (topology, routing, rate) cell of the sweep grid.
type topologyPoint struct {
	topo    string
	routing string
	rate    float64
}

// TopologyComparisonRates are the offered loads the comparison samples,
// all below the 8x8 mesh's saturation knee (an accepted load of about
// 0.17 packets per node and cycle), where the accepted load equals the
// offered one.
var TopologyComparisonRates = []float64{0.01, 0.03, 0.05}

// topologyRoutings are the routings the comparison runs on each fabric.
// The torus runs XY only: the adaptive turn models route over its mesh
// sub-network and never take a wrap link (topology.NewRouting), so a torus
// row of theirs repeats the mesh row value for value.
var topologyRoutings = []struct {
	topo     string
	routings []string
}{
	{"mesh", topology.RoutingNames()},
	{"torus", []string{"xy"}},
}

// TopologyComparison sweeps uniform-random traffic across the fabrics and
// their routings (topologyRoutings) and the injection rates on one fabric
// size (the first of Options.Meshes, the paper's 8x8 by default), one
// simulation point per cell on the worker pool. It reports the
// per-topology latency and hop curves next to the analytic hop bounds:
// the torus's shorter-way-around rings cut the mean hop count by roughly a
// third and the diameter in half, which shows up directly as network
// latency.
func TopologyComparison(opts Options) ([]TopologyRow, error) {
	size := opts.meshes()[0]
	var points []topologyPoint
	for _, f := range topologyRoutings {
		for _, routing := range f.routings {
			for _, rate := range TopologyComparisonRates {
				points = append(points, topologyPoint{topo: f.topo, routing: routing, rate: rate})
			}
		}
	}
	rows, err := Sweep(opts.ctx(), opts.Workers, points,
		func(_ context.Context, _ int, p topologyPoint) (TopologyRow, error) {
			return runTopologyPoint(p, size)
		})
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	return rows, nil
}

// runTopologyPoint executes one synthetic run and projects its row.
func runTopologyPoint(p topologyPoint, size int) (TopologyRow, error) {
	cfg := noc.DefaultConfig(size, size)
	cfg.Topology = p.topo
	cfg.Routing = p.routing
	if p.topo == "torus" {
		cfg.EastSinks = false
	}
	nw, err := noc.Acquire(cfg)
	if err != nil {
		return TopologyRow{}, err
	}
	defer nw.Release()
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: nw.Topology().NumNodes()},
		InjectionRate: p.rate,
		PacketFlits:   cfg.UnicastFlits,
		Warmup:        500,
		Measure:       2000,
		Seed:          1,
	})
	if err != nil {
		return TopologyRow{}, err
	}
	res, err := gen.Run(20_000_000)
	if err != nil {
		return TopologyRow{}, fmt.Errorf("%s/%s rate %v: %w", p.topo, p.routing, p.rate, err)
	}
	meanBound, err := analytic.UniformMeanHops(p.topo, size, size)
	if err != nil {
		return TopologyRow{}, err
	}
	maxBound, err := analytic.MaxHops(p.topo, size, size)
	if err != nil {
		return TopologyRow{}, err
	}
	return TopologyRow{
		Topology:          p.topo,
		Routing:           p.routing,
		Rate:              p.rate,
		Throughput:        res.Throughput,
		AvgLatency:        res.Latency.Mean(),
		AvgNetworkLatency: res.NetworkLatency.Mean(),
		AvgHops:           res.Hops.Mean(),
		MeanHopBound:      meanBound,
		MaxHopBound:       maxBound,
	}, nil
}

// RenderTopologyComparison formats the comparison as per-fabric latency
// and hop curves.
func RenderTopologyComparison(rows []TopologyRow) string {
	var b strings.Builder
	b.WriteString("Extension: topology x routing comparison, uniform random traffic\n")
	fmt.Fprintf(&b, "%6s %10s %7s %10s %10s %8s %9s %8s\n",
		"fabric", "routing", "rate", "latency", "net lat", "hops", "hop bound", "diameter")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6s %10s %7.3f %10.1f %10.1f %8.2f %9.2f %8d\n",
			r.Topology, r.Routing, r.Rate, r.AvgLatency, r.AvgNetworkLatency,
			r.AvgHops, r.MeanHopBound, r.MaxHopBound)
	}
	return b.String()
}
