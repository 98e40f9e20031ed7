package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// GeneratorConfig parameterizes an open-loop synthetic run.
type GeneratorConfig struct {
	// Pattern picks destinations.
	Pattern Pattern
	// InjectionRate is packets per node per cycle: each node's arrivals
	// are a Bernoulli process of this p, drawn one arrival at a time as
	// geometric gaps (Generator).
	InjectionRate float64
	// PacketFlits is the injected packet length.
	PacketFlits int
	// Warmup and Measure are the warm-up and measurement windows in
	// cycles; injection stops after Warmup+Measure and the run drains.
	// Their sum is at most math.MaxInt64/2, so no window end overflows.
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
	case !(c.InjectionRate >= 0 && c.InjectionRate <= 1):
		return fmt.Errorf("traffic: injection rate %v out of [0,1]", c.InjectionRate)
	case c.PacketFlits < 1:
		return fmt.Errorf("traffic: packet length %d invalid", c.PacketFlits)
	case c.Warmup < 0 || c.Measure < 1 || c.Warmup > math.MaxInt64/2-c.Measure:
		return fmt.Errorf("traffic: windows %d/%d invalid", c.Warmup, c.Measure)
	}
	return nil
}

// SaturationMargin is how far, as a share of the offered load, the
// accepted load may fall short of it before a run reads as saturated
// (GeneratorResult.Saturated). Below the knee the two differ by the
// packets in flight across the window's edges, about latency/Measure of
// the load: under 2 % at the usual windows.
const SaturationMargin = 0.05

// GeneratorResult summarizes a synthetic run.
type GeneratorResult struct {
	// Injected counts the packets injected during the measurement window;
	// Received those of them delivered, whenever they arrive (drain
	// included). A run that drains has Received == Injected.
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
	// Offered is Injected per node per cycle of the measurement window.
	// Throughput is the accepted load: the packets that ejected during the
	// window, whatever cycle they were injected in, per node per cycle.
	// Past the network's saturation point Throughput stays at what the
	// fabric carries while Offered keeps rising.
	Offered    float64
	Throughput float64
	// Backlog counts the packets that entered a source queue before the
	// window ended and were still in it at the end (their head had not
	// entered the network), counted as they are delivered.
	Backlog uint64
}

// Saturated reports whether the accepted load falls short of the offered
// load by more than SaturationMargin of it.
func (r *GeneratorResult) Saturated() bool {
	return r.Throughput < (1-SaturationMargin)*r.Offered
}

// Generator drives an open-loop synthetic workload on a network, either
// alone (NewGenerator + Run: Run ends at network quiescence, since
// untracked traffic has no Drained of its own to end at) or as a
// workload.Driver phase (NewGeneratorDriver, where a scheduler admits the
// phase, ticks it and dispatches its tagged packets back through OnPacket).
// Create one per run or phase.
//
// Each node's packets arrive as a Bernoulli(p) process, p the injection
// rate, but the generator draws arrivals, not trials: each node holds its
// next arrival cycle, drawn as a geometric gap (arrival), and Tick returns
// at once on a cycle before the earliest of them. An arrival costs its
// destination's draws and its successor's gap, so a run's draws follow its
// packets, not its nodes × cycles. On a cycle with arrivals the due nodes
// inject in ascending node id.
//
// A Generator is a plain sim.Ticker, with no Idle and no timer, so a
// fabric it drives never jumps. It could sleep until its next arrival, but
// bench/trace.go wraps it in a timing ticker that is not an Idler, and
// bench/harness.go fails a traced op whose sim.evaluated or sim.skipped
// differ from the untraced ops'; sleeping waits until that wrapper changes
// with it.
type Generator struct {
	nw  *noc.Network
	cfg GeneratorConfig
	rng *rand.Rand
	// src wraps the seeded source with a draw counter so snapshots can
	// record the RNG position and restore it by replaying discards.
	src *countingSource
	tag flit.Tag
	// logq is log(1 − p), the scale of every geometric gap.
	logq float64

	// base is the engine cycle the injection windows are measured from:
	// 0 standalone, the phase admission cycle under a scheduler.
	base      int64
	injecting bool
	// next holds each node's next arrival cycle, sim.Never once its
	// arrivals run past the window (and before Start). due is the first
	// cycle Tick has work on: the earliest arrival or the window end while
	// injecting, sim.Never otherwise.
	next     []int64
	due      int64
	injected uint64
	received uint64
	// accepted counts packets ejected during the measurement window,
	// backlog those still queued at its source when the window ended.
	accepted uint64
	backlog  uint64
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
	g := &Generator{
		nw:   nw,
		cfg:  cfg,
		rng:  rand.New(src),
		src:  src,
		logq: math.Log1p(-cfg.InjectionRate),
		next: make([]int64, nw.Topology().NumNodes()),
		due:  sim.Never,
	}
	for id := range g.next {
		g.next[id] = sim.Never
	}
	return g, nil
}

// SetTag assigns the workload tag every injected packet is sent under
// (workload.Taggable; the scheduler calls it before Start).
func (g *Generator) SetTag(t flit.Tag) { g.tag = t }

// Start begins the injection windows at the given cycle (workload.Driver)
// and draws every node's first arrival, in ascending node id.
func (g *Generator) Start(cycle int64) {
	g.base = cycle
	g.injecting = true
	for id := range g.next {
		g.next[id] = g.arrival(cycle)
	}
	g.due = min(g.end(), slices.Min(g.next))
}

// end is the first cycle past the injection windows.
func (g *Generator) end() int64 { return g.base + g.cfg.Warmup + g.cfg.Measure }

// arrival draws a node's next arrival: the first cycle from `from` on whose
// Bernoulli(p) trial succeeds, drawn at once as a gap of
// ⌊log U / log(1 − p)⌋ cycles with U in (0, 1], the geometric law of the
// failures before a success. A gap that reaches the window end, or is not
// a finite non-negative number (p = 0 makes it −∞ or NaN), is no further
// arrival: sim.Never. p = 1 makes every gap 0.
func (g *Generator) arrival(from int64) int64 {
	gap := math.Floor(math.Log(1-g.src.float64()) / g.logq)
	if !(gap >= 0 && gap < float64(g.end()-from)) {
		return sim.Never
	}
	return from + int64(gap)
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

// OnPacket records one delivered generator packet: one injected during the
// measurement window feeds the latency samples, one that ejected during it
// the accepted load. The scheduler dispatches tagged packets here;
// NewGenerator wires it as the receive callback.
func (g *Generator) OnPacket(p *nic.ReceivedPacket) {
	g.delivered++
	from, end := g.base+g.cfg.Warmup, g.end()
	if p.TailArrival >= from && p.TailArrival < end {
		g.accepted++
	}
	if p.InjectCycle < end && p.NetworkCycle >= end {
		g.backlog++
	}
	if p.InjectCycle >= from && p.InjectCycle < end {
		g.received++
		g.res.Latency.Observe(float64(p.Latency()))
		g.res.QueueLatency.Observe(float64(p.QueueLatency()))
		g.res.NetworkLatency.Observe(float64(p.NetworkLatency()))
		g.res.Hops.Observe(float64(p.Hops - 1))
	}
}

// Tick injects the packets whose arrival is due, and ends injection at the
// window end. Any other cycle returns at once.
func (g *Generator) Tick(cycle int64) {
	if cycle < g.due {
		return
	}
	end := g.end()
	if cycle >= end {
		g.injecting = false
		g.due = sim.Never
		return
	}
	measured := cycle-g.base >= g.cfg.Warmup
	due := end
	for id, at := range g.next {
		if at <= cycle {
			// The destination draws through g.rng, the gap from the
			// source directly (countingSource.float64): one stream.
			src := topology.NodeID(id)
			if dst := g.cfg.Pattern.Destination(src, g.rng); dst != src {
				g.nw.NIC(src).SendUnicastN(g.tag, dst, g.cfg.PacketFlits)
				g.sent++
				if measured {
					g.injected++
				}
			}
			at = g.arrival(cycle + 1)
			g.next[id] = at
		}
		due = min(due, at)
	}
	g.due = due
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
	g.res.Backlog = g.backlog
	g.res.Cycles = cycles
	span := float64(g.cfg.Measure) * float64(g.nw.Topology().NumNodes())
	g.res.Offered = float64(g.injected) / span
	g.res.Throughput = float64(g.accepted) / span
	return &g.res
}
