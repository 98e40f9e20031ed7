package traffic

import (
	"fmt"
	"math/rand"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// GeneratorConfig parameterizes an open-loop synthetic run.
type GeneratorConfig struct {
	// Pattern picks destinations.
	Pattern Pattern
	// InjectionRate is packets per node per cycle (Bernoulli process).
	InjectionRate float64
	// PacketFlits is the injected packet length.
	PacketFlits int
	// Warmup and Measure are the warm-up and measurement windows in
	// cycles; injection stops after Warmup+Measure and the run drains.
	Warmup  int64
	Measure int64
	// Seed makes the run reproducible.
	Seed int64
}

// Validate reports configuration errors.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.Pattern == nil:
		return fmt.Errorf("traffic: nil pattern")
	case c.InjectionRate < 0 || c.InjectionRate > 1:
		return fmt.Errorf("traffic: injection rate %v out of [0,1]", c.InjectionRate)
	case c.PacketFlits < 1:
		return fmt.Errorf("traffic: packet length %d invalid", c.PacketFlits)
	case c.Warmup < 0 || c.Measure < 1:
		return fmt.Errorf("traffic: windows %d/%d invalid", c.Warmup, c.Measure)
	}
	return nil
}

// GeneratorResult summarizes a synthetic run.
type GeneratorResult struct {
	// Injected and Received count measured-window packets.
	Injected uint64
	Received uint64
	// Latency samples received packets' end-to-end latencies (cycles),
	// measurement window only. QueueLatency and NetworkLatency break the
	// same packets' latency into source-queueing and in-network portions.
	Latency        stats.Sample
	QueueLatency   stats.Sample
	NetworkLatency stats.Sample
	// Hops samples the same packets' traversed link hops (routers visited
	// minus one), the measured counterpart of the per-topology analytic
	// hop bounds (analytic.UniformMeanHops).
	Hops stats.Sample
	// Cycles is the total run length including drain.
	Cycles int64
	// Throughput is received packets per node per cycle over the
	// measurement window.
	Throughput float64
}

// Generator drives an open-loop synthetic workload on a network, either
// alone (NewGenerator + Run: Run ends at network quiescence, since
// untracked traffic has no Drained of its own to end at) or as a
// workload.Driver phase (NewGeneratorDriver, where a scheduler admits the
// phase, ticks it and dispatches its tagged packets back through OnPacket).
// Create one per run or phase.
//
// A Generator is a plain sim.Ticker on purpose: it draws from its random
// stream every cycle of its injection window, so it has no Idle and arms no
// timer, and a fabric it drives never jumps. bench/trace.go wraps it in a
// ticker that is not an Idler either, and bench/harness.go fails a traced op
// whose sim.evaluated or sim.skipped differ from the untraced ops'; giving
// it a sleep state would need the wrapper changed with it.
type Generator struct {
	nw  *noc.Network
	cfg GeneratorConfig
	rng *rand.Rand
	// src wraps the seeded source with a draw counter so snapshots can
	// record the RNG position and restore it by replaying discards; the
	// draw sequence is untouched, keeping golden results bit-identical.
	src *countingSource
	tag flit.Tag

	// base is the engine cycle the injection windows are measured from:
	// 0 standalone, the phase admission cycle under a scheduler.
	base      int64
	injecting bool
	injected  uint64
	received  uint64
	// sent/delivered count every packet of the run (warm-up included), the
	// conservation pair behind Drained.
	sent      uint64
	delivered uint64
	res       GeneratorResult
}

// NewGenerator prepares a generator to Run alone on nw: NewGeneratorDriver,
// with every delivery wired to OnPacket (noc.Network.OnReceive) and
// injection started at cycle 0.
func NewGenerator(nw *noc.Network, cfg GeneratorConfig) (*Generator, error) {
	g, err := NewGeneratorDriver(nw, cfg)
	if err != nil {
		return nil, err
	}
	nw.OnReceive(g.OnPacket)
	g.Start(0)
	return g, nil
}

// NewGeneratorDriver prepares a generator phase for a workload scheduler:
// no receive callback is wired (the scheduler owns them and dispatches this
// phase's packets to OnPacket by tag) and injection starts at Start, not
// construction.
func NewGeneratorDriver(nw *noc.Network, cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := newCountingSource(cfg.Seed)
	return &Generator{
		nw:  nw,
		cfg: cfg,
		rng: rand.New(src),
		src: src,
	}, nil
}

// SetTag assigns the workload tag every injected packet is sent under
// (workload.Taggable; the scheduler calls it before Start).
func (g *Generator) SetTag(t flit.Tag) { g.tag = t }

// Start begins the injection windows at the given cycle (workload.Driver).
func (g *Generator) Start(cycle int64) {
	g.base = cycle
	g.injecting = true
}

// Injected reports whether the injection window has elapsed
// (workload.Driver: overlap successors may start).
func (g *Generator) Injected() bool { return !g.injecting }

// Drained reports whether every injected packet has been delivered
// (workload.Driver: barrier successors may start). Meaningful only when
// packet deliveries reach OnPacket — alone via NewGenerator's callback,
// under a scheduler via tag dispatch.
func (g *Generator) Drained() bool { return !g.injecting && g.delivered == g.sent }

// Sent and Delivered expose the conservation pair: every packet the
// generator injected (warm-up included) and every one that reached an
// ejection point.
func (g *Generator) Sent() uint64      { return g.sent }
func (g *Generator) Delivered() uint64 { return g.delivered }

// OnPacket records one delivered generator packet (measurement-window
// packets feed the latency samples). The scheduler dispatches tagged
// packets here; NewGenerator wires it as the receive callback.
func (g *Generator) OnPacket(p *nic.ReceivedPacket) {
	g.delivered++
	rel := p.InjectCycle - g.base
	if rel >= g.cfg.Warmup && rel < g.cfg.Warmup+g.cfg.Measure {
		g.received++
		g.res.Latency.Observe(float64(p.Latency()))
		g.res.QueueLatency.Observe(float64(p.QueueLatency()))
		g.res.NetworkLatency.Observe(float64(p.NetworkLatency()))
		g.res.Hops.Observe(float64(p.Hops - 1))
	}
}

// Tick injects per-node Bernoulli traffic while inside the injection
// window.
func (g *Generator) Tick(cycle int64) {
	if !g.injecting {
		return
	}
	rel := cycle - g.base
	if rel >= g.cfg.Warmup+g.cfg.Measure {
		g.injecting = false
		return
	}
	measured := rel >= g.cfg.Warmup
	nodes, rate := g.nw.Topology().NumNodes(), g.cfg.InjectionRate
	for id := 0; id < nodes; id++ {
		// The trial draws from the source directly (countingSource.float64);
		// destinations draw through g.rng, which reads the same source.
		if g.src.float64() >= rate {
			continue
		}
		src := topology.NodeID(id)
		dst := g.cfg.Pattern.Destination(src, g.rng)
		if dst == src {
			continue
		}
		g.nw.NIC(src).SendUnicastN(g.tag, dst, g.cfg.PacketFlits)
		g.sent++
		if measured {
			g.injected++
		}
	}
}

// Run executes the workload: warm-up, measurement, then drain, with the
// generator registered with the network's engine for that long. It returns
// the result summary.
func (g *Generator) Run(maxCycles int64) (*GeneratorResult, error) {
	done := func() bool { return !g.injecting && g.nw.Quiescent() }
	cycles, err := g.nw.Engine().RunWith(g, done, maxCycles)
	if err != nil {
		return nil, err
	}
	return g.Result(cycles), nil
}

// Result finalizes the run summary. Run calls it; scheduler-driven phases
// call it once the scheduler completes, with the run length to record.
func (g *Generator) Result(cycles int64) *GeneratorResult {
	g.res.Injected = g.injected
	g.res.Received = g.received
	g.res.Cycles = cycles
	if g.cfg.Measure > 0 {
		g.res.Throughput = float64(g.received) /
			float64(g.cfg.Measure) / float64(g.nw.Topology().NumNodes())
	}
	return &g.res
}
