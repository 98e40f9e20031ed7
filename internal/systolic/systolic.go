// Package systolic implements the output-stationary (OS) dataflow engine
// of Sec. III-A: per round, input feature-map operands stream from the
// west edge and filter weights from the north edge in a wavefront (Fig. 2),
// every PE performs C·R·R multiply-accumulates, and the partial-convolution
// results return to the global buffer on the east edge (Fig. 4's pipelined
// input/MAC/result schedule) — either as per-PE repetitive-unicast packets
// or via the paper's gather packets.
//
// Streaming and MAC are modeled as a deterministic wavefront (they use
// dedicated systolic forwarding paths, not the router pipeline); the
// result-collection phase is simulated flit by flit on the NoC. This
// matches the structure of Eqs. (2)/(3), where streaming contributes
// C·R·R + T_MAC per round and only collection interacts with the network.
// Streaming energy is accounted as operand-hops for the power model, since
// the paper's Orion traces include the streamed operands (DESIGN.md §3).
// Rounds are sequenced by the shared round loop (internal/round,
// DESIGN.md §8), so a layer is a workload.Driver: run alone by workload.Run
// or scheduled as one phase beside others. Results enter the network
// through its one sender side (noc.Network.Submit over a noc.LineCollect
// row plan, DESIGN.md §7).
package systolic

import (
	"fmt"

	"gathernoc/internal/cnn"
	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/round"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// Mode selects the result-collection scheme.
type Mode uint8

// Collection modes.
const (
	// RepetitiveUnicast is the baseline: every PE unicasts its result to
	// the global buffer.
	RepetitiveUnicast Mode = iota + 1
	// GatherMode uses the paper's gather packets: the leftmost PE of each
	// row initiates one, intermediate PEs piggyback (Algorithm 1).
	GatherMode
)

// scheme maps the mode onto the network's collection transport.
func (m Mode) scheme() noc.CollectScheme {
	if m == GatherMode {
		return noc.CollectGather
	}
	return noc.CollectUnicast
}

// String names the mode as in the paper ("RU", "Gather").
func (m Mode) String() string {
	switch m {
	case RepetitiveUnicast:
		return "RU"
	case GatherMode:
		return "Gather"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Dataflow selects the systolic mapping of the convolution onto the PE
// array.
type Dataflow uint8

// Dataflows. The zero value selects OutputStationary (the paper's
// evaluation setting).
const (
	// OutputStationary (Sec. III-A): every PE accumulates one output
	// position; all N·M PEs return a result every round.
	OutputStationary Dataflow = iota
	// WeightStationary is the paper's future-work dataflow: weights are
	// pinned in PEs, partial sums cascade down each column, and only the
	// bottom-row PEs emit results — one completed output per column per
	// round. Result collection concentrates in a single row, which is an
	// even more aggressive many-to-one pattern than OS.
	WeightStationary
)

// String names the dataflow.
func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "OS"
	case WeightStationary:
		return "WS"
	default:
		return fmt.Sprintf("Dataflow(%d)", uint8(d))
	}
}

// Config parameterizes one layer run.
type Config struct {
	// Layer is the convolution layer to execute.
	Layer cnn.LayerConfig
	// Mode selects RU or gather collection.
	Mode Mode
	// Dataflow selects the systolic mapping (default OutputStationary).
	Dataflow Dataflow
	// TMAC is the MAC latency in cycles (Table I: 5).
	TMAC int
	// MaxRounds is how many rounds the run samples (RoundsSimulated); the
	// layer's total is their mean latency times TotalRounds. A layer run
	// alone on a bare fabric (workload.Run) simulates the sampled rounds
	// only until one is proven identical to the round before it
	// (round.Loop.Settled), and accounts the rest as its copies: rounds
	// are proven identical, else extrapolated. One that follows a
	// trajectory table (round.Loop.Join) may instead replay the rounds of
	// an earlier layer they provably repeat. 0 means 2.
	MaxRounds int
	// SimulateAllRounds disables extrapolation (exact mode).
	SimulateAllRounds bool
	// FlatDelta gives the controller's row plans unit δ scales, applying
	// the network config's base δ uniformly — the literal reading of
	// Table I, exercised by the δ ablation.
	FlatDelta bool
	// SkewPerHop staggers PE completion by this many cycles per hop of
	// systolic distance (row+col). The paper's Eq. (2) models result
	// collection as a synchronized phase, so the default is 0. Positive
	// values model the operand wavefront's completion stagger; the skew
	// ablation shows how the stagger interacts with the buffer's
	// per-packet transaction serialization (a stagger equal to κ aligns a
	// row's arrivals at the buffer and maximizes RU serialization).
	SkewPerHop int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Layer.Validate(); err != nil {
		return err
	}
	switch {
	case c.Mode != RepetitiveUnicast && c.Mode != GatherMode:
		return fmt.Errorf("systolic: invalid mode %d", c.Mode)
	case c.TMAC < 0:
		return fmt.Errorf("systolic: TMAC %d invalid", c.TMAC)
	case c.MaxRounds < 0:
		return fmt.Errorf("systolic: MaxRounds %d invalid", c.MaxRounds)
	case c.SkewPerHop < 0:
		return fmt.Errorf("systolic: SkewPerHop %d invalid", c.SkewPerHop)
	case c.Dataflow != OutputStationary && c.Dataflow != WeightStationary:
		return fmt.Errorf("systolic: invalid dataflow %d", c.Dataflow)
	}
	return nil
}

// totalRounds returns the round count for the configured dataflow on an
// rows×cols array: OS computes N·M outputs per round (⌈P/N⌉·⌈Q/M⌉ rounds,
// Eq. 2/3); WS completes one output per column per round (⌈P·Q/M⌉ rounds).
func (c Config) totalRounds(rows, cols int) int64 {
	if c.Dataflow == WeightStationary {
		total := int64(c.Layer.OutputPositions()) * int64(c.Layer.OutKernels)
		return (total + int64(cols) - 1) / int64(cols)
	}
	return c.Layer.Rounds(rows, cols)
}

// resultsPerRound returns how many results return to the buffer per round.
func (c Config) resultsPerRound(rows, cols int) int {
	if c.Dataflow == WeightStationary {
		return cols
	}
	return rows * cols
}

// computeLatency returns the streaming+compute time of one round before
// results are ready, excluding wavefront skew.
func (c Config) computeLatency(rows int) int {
	if c.Dataflow == WeightStationary {
		// Operands split across the column's rows, then the partial sums
		// cascade down the column before the final accumulation.
		return (c.Layer.MACsPerPE()+rows-1)/rows + rows + c.TMAC
	}
	return c.Layer.MACsPerPE() + c.TMAC
}

// Result summarizes a layer run: the Record the simulation produced and
// echoes of the parameters it ran with.
type Result struct {
	// Layer, Mode, Dataflow, Rows, Cols echo the run parameters.
	Layer    cnn.LayerConfig
	Mode     Mode
	Dataflow Dataflow
	Rows     int
	Cols     int

	Record
}

// Record is what only running a layer determines: every Result field that
// is not an echo of the run's parameters. It is the unit a result cache
// stores (DESIGN.md §14).
type Record struct {
	// TotalRounds is ⌈P/N⌉·⌈Q/M⌉; RoundsSimulated is how many rounds the
	// Record samples before extrapolation: simulated, or proven identical
	// to the round before and accounted as its copy (round.Loop.Settled).
	TotalRounds     int64
	RoundsSimulated int

	// RoundCycles samples the simulated rounds' full latencies
	// (streaming + MAC + collection); CollectionCycles samples just the
	// collection phases.
	RoundCycles      stats.Sample
	CollectionCycles stats.Sample

	// TotalCycles is the extrapolated whole-layer latency
	// (mean round latency × TotalRounds); MeasuredCycles is the simulated
	// portion.
	TotalCycles    int64
	MeasuredCycles int64

	// Activity holds the NoC event counts of the simulated rounds;
	// StreamHops and MACs the corresponding systolic-side counts.
	Activity   noc.Activity
	StreamHops uint64
	MACs       uint64

	// SelfInitiatedGathers and PiggybackAcks describe gather-protocol
	// behaviour; PayloadErrors counts integrity violations (must be 0).
	SelfInitiatedGathers uint64
	PiggybackAcks        uint64
	PayloadErrors        int
}

// ScaleFactor returns TotalRounds / RoundsSimulated for extrapolating
// event counts to the whole layer.
func (r *Result) ScaleFactor() float64 {
	if r.RoundsSimulated == 0 {
		return 0
	}
	return float64(r.TotalRounds) / float64(r.RoundsSimulated)
}

// Controller drives one layer run on a network: the round loop is the
// embedded round.Loop (DESIGN.md §8), the controller supplies the completion
// schedule, the result payloads and the global buffer's integrity check, and
// releases each result through the network's row plans (noc.Network.Submit,
// the sender side of Algorithm 1). It is a workload.Driver (plus the
// PacketSink, Taggable and ForeignPayloadRouter wiring interfaces): run it
// alone with workload.Run, or as a workload.Scheduler phase, then read
// Result.
type Controller struct {
	round.Loop

	nw    *noc.Network
	cfg   Config
	plans []noc.LineCollect

	rows, cols int
	crr        int
	expected   int

	collected   int
	seenSeq     map[uint64]bool
	seenSrc     map[topology.NodeID]bool
	payloadErrs int

	res Result
}

// reading is what the controller's Record takes from the network's
// counters, read at one cycle boundary.
type reading struct {
	act             noc.Activity
	sig, acks, errs uint64
}

func (c *Controller) read() reading {
	r := reading{act: c.nw.Activity(), errs: uint64(c.payloadErrs)}
	for id := range c.nw.Mesh().NumNodes() {
		n := c.nw.NIC(topology.NodeID(id))
		r.sig += n.SelfInitiatedGathers.Value()
		r.acks += n.PiggybackAcks.Value()
	}
	return r
}

// NewController prepares a layer run on nw: it plans each row's collection
// at its sink (δ scaled by distance from the row's gather initiator,
// DESIGN.md §3). It wires no receive callback and opens no round; whoever
// runs the controller delivers its packets to OnPacket and calls Start.
func NewController(nw *noc.Network, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nc := nw.Config()
	if !nc.EastSinks {
		return nil, fmt.Errorf("systolic: network needs east-edge global-buffer sinks")
	}
	c := &Controller{
		nw:   nw,
		cfg:  cfg,
		rows: nc.Rows,
		cols: nc.Cols,
		crr:  cfg.Layer.MACsPerPE(),
	}
	c.expected = cfg.resultsPerRound(c.rows, c.cols)
	c.seenSeq = make(map[uint64]bool, c.expected)
	c.seenSrc = make(map[topology.NodeID]bool, c.expected)

	total := cfg.totalRounds(c.rows, c.cols)
	sim := cfg.MaxRounds
	if sim == 0 {
		sim = 2
	}
	if cfg.SimulateAllRounds || int64(sim) > total {
		if total > int64(int(^uint(0)>>1)) {
			return nil, fmt.Errorf("systolic: round count %d too large to simulate exactly", total)
		}
		sim = int(total)
	}
	c.Init(c, c.rows*c.cols, sim)

	c.res = Result{
		Layer: cfg.Layer, Mode: cfg.Mode, Dataflow: cfg.Dataflow,
		Rows: c.rows, Cols: c.cols,
		Record: Record{TotalRounds: total, RoundsSimulated: sim},
	}

	c.plans = make([]noc.LineCollect, c.rows)
	for row := range c.plans {
		c.plans[row] = nw.RowLine(row, true)
		if cfg.FlatDelta {
			for i := range c.plans[row].DeltaScale {
				c.plans[row].DeltaScale[i] = 1
			}
		}
	}
	return c, nil
}

// OnPacket accounts results arriving at the global buffer and checks
// payload integrity: every PE's payload must arrive exactly once per
// round, whatever mix of gather, self-initiated-gather and unicast packets
// carried it. Payloads tagged for another controller, picked up en route by
// this layer's gather packet, go home through the foreign handler
// (round.Loop.Route). A delivery is what can complete the round, so it
// wakes the round loop.
func (c *Controller) OnPacket(p *nic.ReceivedPacket) {
	c.Wake()
	c.Route(p, c.onPayload)
	if p.PT == flit.Unicast && len(p.Payloads) == 0 {
		// A result packet without its payload is an integrity failure.
		c.payloadErrs++
	}
}

func (c *Controller) onPayload(pl flit.Payload) {
	if c.seenSeq[pl.Seq] || c.seenSrc[pl.Src] {
		c.payloadErrs++
		return
	}
	c.seenSeq[pl.Seq] = true
	c.seenSrc[pl.Src] = true
	c.collected++
}

// BeginRound resets the buffer's per-round account and declares the
// completion schedule (round.Hooks): participating PEs finish the round's
// streaming+compute time after the round start, optionally staggered by the
// wavefront skew (SkewPerHop × systolic distance). Under WS only the bottom
// row emits results.
func (c *Controller) BeginRound(now int64) {
	c.collected = 0
	clear(c.seenSeq)
	clear(c.seenSrc)
	base := c.cfg.computeLatency(c.rows)
	for row := 0; row < c.rows; row++ {
		if c.cfg.Dataflow == WeightStationary && row != c.rows-1 {
			continue
		}
		for col := 0; col < c.cols; col++ {
			id := int(c.nw.Mesh().ID(topology.Coord{Row: row, Col: col}))
			c.Ready(id, now+int64(c.cfg.SkewPerHop*(row+col)+base))
		}
	}
}

// Result finalizes and returns the run summary. Call after Drained.
func (c *Controller) Result() *Result {
	r := c.res
	now := c.read()
	if g := c.Grown(); g != nil {
		now.sig += g[0]
		now.acks += g[1]
		now.errs += g[2]
		now.act = now.act.AddCounts(g[3:])
	}
	r.Activity = now.act
	r.SelfInitiatedGathers = now.sig
	r.PiggybackAcks = now.acks
	r.PayloadErrors = int(now.errs)
	// Streaming and compute activity per round. OS: every PE receives
	// C·R·R inputs from the west and C·R·R weights from the north (one
	// hop each) and performs C·R·R MACs. WS: each column consumes C·R·R
	// operands split across its rows and cascades N partial sums; weights
	// stay put.
	var streamPerRound, macsPerRound uint64
	streams := uint64(c.cfg.Layer.Kind.StreamFactor())
	if c.cfg.Dataflow == WeightStationary {
		macsPerRound = uint64(c.crr) * uint64(c.cols)
		streamPerRound = macsPerRound + uint64(c.rows*c.cols)
	} else {
		macsPerRound = uint64(c.crr) * uint64(c.rows*c.cols)
		streamPerRound = streams * macsPerRound
	}
	r.StreamHops = streamPerRound * uint64(r.RoundsSimulated)
	r.MACs = macsPerRound * uint64(r.RoundsSimulated)
	if r.RoundCycles.N() > 0 {
		r.MeasuredCycles = int64(r.RoundCycles.Sum())
		r.TotalCycles = int64(r.RoundCycles.Mean()*float64(r.TotalRounds) + 0.5)
	}
	return &r
}

// AppendState encodes the state the rest of the run depends on at the
// boundary after cycle base (round.Repeater): the fabric's
// (noc.Network.AppendState) and none of the controller's own — at a round's
// open BeginRound has just emptied the buffer's account, which deliveries
// later in the open's cycle would refill, and from then to the round's
// first release nothing is delivered; the row plans and the run's
// parameters never change. An account that is not empty is not encoded
// (nil).
func (c *Controller) AppendState(buf []byte, base int64) []byte {
	if c.collected != 0 || len(c.seenSeq) != 0 || len(c.seenSrc) != 0 {
		return nil
	}
	return c.nw.AppendState(buf, base)
}

// Tally appends the fabric's clock ties, then the counters Result sums,
// read now (round.Repeater): the self-initiated gathers, the piggyback
// acks and the payload errors, then the NoC activity
// (noc.Activity.AppendCounts). Result adds what the loop accounted without
// simulating (round.Loop.Grown) in the same order, less the ties.
func (c *Controller) Tally(dst []uint64) []uint64 {
	r := c.read()
	return r.act.AppendCounts(append(dst, c.nw.ClockTies(), r.sig, r.acks, r.errs))
}

// Inject releases PE id's result toward its row's global-buffer port
// (round.Hooks): a unicast packet under RU; under gather the row's initiator
// launches the gather packet and the others offer their payload to it. The
// payload's ReduceID carries the workload tag for Route; gather pickup
// matches on destination and unicast ignores it, so no schedule depends on
// it.
func (c *Controller) Inject(id int, cycle int64) {
	node := topology.NodeID(id)
	coord := c.nw.Mesh().Coord(node)
	plan := &c.plans[coord.Row]
	c.nw.Submit(plan, coord.Col, c.cfg.Mode.scheme(), c.Tag(), flit.Payload{
		Seq: c.NextSeq(), Src: node, Dst: plan.Target,
		Bits:       c.nw.Config().PayloadBits,
		Value:      uint64(id)<<32 | uint64(c.Round()),
		ReadyCycle: cycle,
		ReduceID:   flit.TaggedReduceID(c.Tag(), coord.Row, uint32(c.Round())),
	})
}

// Advance reports whether the global buffer has every payload of the round
// (round.Hooks).
func (c *Controller) Advance(int64) bool { return c.collected >= c.expected }

// RoundClosed samples the closed round's full and collection-only latencies
// (round.Hooks).
func (c *Controller) RoundClosed(latency int64) {
	c.res.RoundCycles.Observe(float64(latency))
	c.res.CollectionCycles.Observe(float64(latency) - float64(c.cfg.computeLatency(c.rows)))
}
