package traffic

import (
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/round"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// CollectScheme selects how an accumulation-phase round returns its row
// sums to the global buffer: the network's collection transport
// (noc.CollectScheme), under the names the workloads configure it by.
type CollectScheme = noc.CollectScheme

// Collection schemes for accumulation traffic.
const (
	// CollectUnicast sends every PE's partial sum as its own unicast
	// packet; the buffer performs the reduction.
	CollectUnicast = noc.CollectUnicast
	// CollectGather packs the row's partial sums into gather packets;
	// every operand still travels the full path and the buffer still
	// performs the reduction.
	CollectGather = noc.CollectGather
	// CollectINA reduces the partial sums inside the routers: one
	// constant-length accumulate packet arrives carrying the row's sum.
	CollectINA = noc.CollectINA
)

// SchemeByName parses a collection scheme name.
func SchemeByName(name string) (CollectScheme, error) {
	switch name {
	case "unicast":
		return CollectUnicast, nil
	case "gather":
		return CollectGather, nil
	case "ina":
		return CollectINA, nil
	default:
		return 0, fmt.Errorf("traffic: unknown collection scheme %q (unicast, gather, ina)", name)
	}
}

// AccumulationConfig parameterizes an accumulation-phase workload: every
// round, each PE produces one partial sum for its row's output and the
// row-wide reduction must land at the row's east sink — the conv
// partial-sum traffic of an input-channel-partitioned mapping (see
// cnn.LayerConfig.AccumulationRounds / PartialMACsPerPE for deriving the
// parameters from a layer).
type AccumulationConfig struct {
	// Scheme selects unicast, gather or INA collection.
	Scheme CollectScheme
	// Rounds is how many rounds to simulate (>= 1).
	Rounds int
	// ComputeLatency is the cycles from round start until every PE's
	// partial sum is ready (e.g. ⌈C·R·R/M⌉ + T_MAC).
	ComputeLatency int
}

// Validate reports configuration errors.
func (c AccumulationConfig) Validate() error {
	switch {
	case c.Scheme != CollectUnicast && c.Scheme != CollectGather && c.Scheme != CollectINA:
		return fmt.Errorf("traffic: invalid collection scheme %d", c.Scheme)
	case c.Rounds < 1:
		return fmt.Errorf("traffic: Rounds must be >= 1, got %d", c.Rounds)
	case c.ComputeLatency < 0:
		return fmt.Errorf("traffic: ComputeLatency must be >= 0, got %d", c.ComputeLatency)
	}
	return nil
}

// AccumulationResult summarizes an accumulation-phase run.
type AccumulationResult struct {
	// Scheme, Rows, Cols, Rounds echo the run parameters.
	Scheme CollectScheme
	Rows   int
	Cols   int
	Rounds int

	// RoundCycles samples each simulated round's latency (compute +
	// collection); PacketLatency samples the end-to-end latency of every
	// packet reaching a sink.
	RoundCycles   stats.Sample
	PacketLatency stats.Sample

	// SinkFlits and SinkPackets count the flit and packet transactions
	// the global-buffer ports paid; Merges counts in-network merges and
	// SelfInitiated the δ-timeout fallback packets (gather or accumulate,
	// per the scheme).
	SinkFlits     uint64
	SinkPackets   uint64
	Merges        uint64
	SelfInitiated uint64

	// Reduction accounts the wire work the merges avoided.
	Reduction stats.ReductionStats

	// OracleErrors counts reductions whose delivered sum or operand count
	// disagreed with the software oracle (must be 0).
	OracleErrors int

	// Activity holds the NoC event counts; Cycles the run length.
	Activity noc.Activity
	Cycles   int64
}

// SinkFlitsPerRow returns the mean sink flit transactions one row's
// reduction cost per round.
func (r *AccumulationResult) SinkFlitsPerRow() float64 {
	n := r.Rows * r.Rounds
	if n == 0 {
		return 0
	}
	return float64(r.SinkFlits) / float64(n)
}

// AccumulationController drives an accumulation-phase workload on a
// network: per round every PE submits its partial sum under the configured
// scheme, the row-collection targets reassemble the row reductions, and
// each round's result is checked bit for bit against a software reduction
// oracle. The round loop, the workload tag (every send carries it, it
// namespaces payload sequence numbers and is encoded into every ReduceID, so
// concurrent controllers on one fabric never collide) and the
// foreign-payload hook are the embedded round.Loop's (DESIGN.md §8).
//
// The controller carries no topology assumptions: initiators, targets and
// δ scaling all come from the network's row plans and every operand is
// released through noc.Network.Submit, so the same workload runs against
// east-edge sinks on the mesh and against east-column PEs on a torus (where
// two initiators per row cover the ring, see noc.LineCollect).
type AccumulationController struct {
	round.Loop

	nw    *noc.Network
	cfg   AccumulationConfig
	plans []noc.LineCollect

	rows, cols int

	rowsDone int
	oracle   reduce.Oracle

	res AccumulationResult
}

// NewAccumulationController prepares an accumulation run on nw: the row
// plans and round bookkeeping. It wires no receive callback and opens no
// round; whoever runs the controller (workload.Run, or a workload.Scheduler
// that dispatches this phase's packets by tag) delivers its packets to
// OnPacket and calls Start.
func NewAccumulationController(nw *noc.Network, cfg AccumulationConfig) (*AccumulationController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nc := nw.Config()
	if cfg.Scheme == CollectINA && !nc.EnableINA {
		return nil, fmt.Errorf("traffic: INA collection needs noc.Config.EnableINA")
	}
	c := &AccumulationController{
		nw:   nw,
		cfg:  cfg,
		rows: nc.Rows,
		cols: nc.Cols,
	}
	c.plans = nw.RowLines(nc.EastSinks)
	c.res = AccumulationResult{Scheme: cfg.Scheme, Rows: c.rows, Cols: c.cols, Rounds: cfg.Rounds}
	c.Init(c, c.rows*c.cols, cfg.Rounds, nc.PayloadBits)
	return c, nil
}

// reduceID tags row r's reduction of the current round with this
// controller's workload tag.
func (c *AccumulationController) reduceID(row int) uint64 {
	return flit.TaggedReduceID(c.Tag(), row, uint32(c.Round()))
}

// BeginRound resets the oracle's per-row accounts, declares every PE's
// partial sum (reduce.Operand) ready after the compute latency and loads
// the oracle with the round's operands (round.Hooks).
func (c *AccumulationController) BeginRound(now int64) {
	c.rowsDone = 0
	c.oracle.Reset()
	topo := c.nw.Topology()
	for row := 0; row < c.rows; row++ {
		rid := c.reduceID(row)
		for col := 0; col < c.cols; col++ {
			id := int(topo.ID(topology.Coord{Row: row, Col: col}))
			c.Ready(id, now+int64(c.cfg.ComputeLatency))
			c.oracle.Add(rid, reduce.Operand(id, c.Round()))
		}
	}
}

// OnPacket records one arriving packet and folds its payloads into the
// per-row accounts (workload.Run wires it as the receive callback; a
// scheduler dispatches this phase's tagged packets to it). Payloads tagged
// for another controller — picked up en route by this phase's collective
// packet — are routed through the foreign handler instead.
func (c *AccumulationController) OnPacket(p *nic.ReceivedPacket) {
	c.Wake()
	c.res.PacketLatency.Observe(float64(p.Latency()))
	c.Route(p, c.OnPayload)
}

// OnPayload folds one delivered payload into its row's account, which the
// oracle verifies once complete (reduce.Oracle.Fold). A payload whose
// ReduceID names no row of this controller's tag and the current round, or
// that arrives after its row verified, is an oracle error. A delivery is
// what can complete the round, so it wakes the round loop.
func (c *AccumulationController) OnPayload(pl flit.Payload) {
	c.Wake()
	_, complete, err := c.oracle.Fold(pl)
	if err != nil {
		c.res.OracleErrors++
	}
	if complete {
		c.rowsDone++
	}
}

// Inject submits PE id's partial sum to its row's collection under the
// configured scheme (round.Hooks).
func (c *AccumulationController) Inject(id int, cycle int64) {
	node := topology.NodeID(id)
	coord := c.nw.Topology().Coord(node)
	plan := &c.plans[coord.Row]
	c.nw.Submit(plan, coord.Col, c.cfg.Scheme, c.Tag(),
		c.Payload(node, plan.Target, c.reduceID(coord.Row), reduce.Operand(id, c.Round()), 1, cycle))
}

// Advance reports whether every row's reduction has landed and verified
// (round.Hooks).
func (c *AccumulationController) Advance(int64) bool { return c.rowsDone >= c.rows }

// RoundClosed samples the closed rounds' latency (round.Hooks).
func (c *AccumulationController) RoundClosed(latency int64, n int) {
	c.res.RoundCycles.ObserveN(float64(latency), n)
}

// Result finalizes the run-wide result of a controller run alone, cycles
// long: the controller-local fields of Snapshot plus the network's counters
// (activity, merges, δ fallbacks, the collection targets' ejection
// traffic). Call it once, after Drained.
func (c *AccumulationController) Result(cycles int64) *AccumulationResult {
	r := &c.res
	r.Cycles = cycles
	r.Activity = c.nw.Activity()
	nics := c.nw.NICTotals()
	r.SelfInitiated = nics.SelfInitiated()
	r.Merges = nics.MergeAcks
	// Each merged operand spared its own packet: unicastFlits flits over
	// its node's hop distance to the collection target (sink link
	// included) and one write transaction at the buffer port.
	unicastFlits := c.nw.Config().UnicastFlits
	for i := range c.plans {
		plan := &c.plans[i]
		for _, node := range plan.Nodes {
			hops := c.nw.CollectHops(node, plan)
			for range c.nw.NIC(node).MergeAcks.Value() {
				r.Reduction.Merge(unicastFlits, hops)
			}
		}
		ej := c.nw.Ejector(plan.Target)
		r.SinkFlits += ej.FlitsEjected.Value()
		r.SinkPackets += ej.PacketsEjected.Value()
	}
	return c.Snapshot()
}

// Snapshot returns the controller-local result fields: round and packet
// latencies and the oracle error count. Unlike Result it aggregates no
// network-wide counters, so it is the accessor scheduler-driven phases use
// — concurrent phases share those counters and summing them per phase
// would double-count.
func (c *AccumulationController) Snapshot() *AccumulationResult { return &c.res }
