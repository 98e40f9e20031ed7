package collective

import (
	"errors"
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/round"
	"gathernoc/internal/topology"
)

// ReduceID row-field conventions: values below Rows name a row's level-1
// reduction; rowIDColumn tags the column-stage (root) reduction and
// rowIDBroadcast the broadcast payload. flit.TaggedReduceID carries 16
// bits of row, so fabrics up to 2^16-2 rows keep the channels distinct.
const (
	rowIDColumnOffset    = 0
	rowIDBroadcastOffset = 1
)

// Driver runs a collective workload phase on a network: per round every
// PE contributes one operand (or, for a pure broadcast, the root produces
// one value), the operands flow through the two-level tree — or straight
// to the root under AlgFlat — and ops with a broadcast leg fan the result
// back out to every PE. Each level of each round is verified bit for bit
// against a software reduce.Oracle, and every broadcast receipt against
// the expected value.
//
// The driver carries no topology assumptions: initiators, targets, sweep
// membership and δ scaling all come from the TreePlan's LineCollect
// plans, and both tree stages release their payloads through
// noc.Network.Submit, so the same workload runs on the paper's sink mesh
// and on a torus. It implements workload.Driver (plus the PacketSink,
// PayloadSink, Taggable and ForeignPayloadRouter wiring interfaces), so a
// scheduler can admit a collective phase alongside any other traffic. The
// round loop,
// the leaf release, the workload tag (every send carries it, it namespaces
// payload sequence numbers and is encoded into every ReduceID, so concurrent
// drivers on one fabric never collide) and the foreign-payload hook are the
// embedded round.Loop's (DESIGN.md §8).
type Driver struct {
	round.Loop

	nw   *noc.Network
	cfg  Config
	plan *TreePlan

	rows, cols, nodes int
	bcastDests        *topology.DestSet

	// Level 1 (tree/fused): the row-sum relays.
	rowSum  []uint64
	l2Ready []bool
	l2Sent  []bool
	l2Left  int

	// Level 2: whether the root's reduction completed.
	reduceDone bool

	// Broadcast leg.
	rootReadyAt int64
	bcastSent   bool
	bcastVal    uint64
	got         []bool
	gotCount    int

	// oracle holds the round's accounts: each row's level-1 reduction
	// (tree/fused) and the root's.
	oracle reduce.Oracle
	res    Result
}

// ErrLossyMulticast reports a collective whose broadcast leg travels as one
// multicast packet (Broadcast and AllReduce under AlgTree and AlgFused) on
// a fabric that drops or corrupts flits. The NIC's retransmission resends a
// payload until its first delivery is confirmed, so a multicast branch lost
// after another branch has arrived is never sent again and the round cannot
// finish. Reduce, the flat algorithm and outage-only fault schedules are
// not affected.
var ErrLossyMulticast = errors.New("collective: multicast broadcast leg cannot recover from flit loss")

// NewDriver prepares a collective run on nw: the tree plan and round
// bookkeeping. It wires no receive callback and opens no round; whoever
// runs the driver (workload.Run, or a workload.Scheduler that dispatches
// this phase's packets by tag) delivers its packets to OnPacket and calls
// Start.
func NewDriver(nw *noc.Network, cfg Config) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nc := nw.Config()
	if cfg.Algorithm == AlgFused && !nc.EnableINA {
		return nil, fmt.Errorf("collective: fused algorithm needs noc.Config.EnableINA")
	}
	if f := nc.Faults; f != nil && (f.DropRate > 0 || f.CorruptRate > 0) && cfg.Op != Reduce && cfg.Algorithm != AlgFlat {
		return nil, fmt.Errorf("%w: %s/%s with drop rate %g, corrupt rate %g; use the flat algorithm or a loss-free fault schedule",
			ErrLossyMulticast, cfg.Op, cfg.Algorithm, f.DropRate, f.CorruptRate)
	}
	// A pure Reduce lands at the global buffer when the fabric has one;
	// ops with a broadcast leg keep the root on a PE, which can re-inject.
	plan, err := NewTreePlan(nw, PlanOptions{RootAtSink: cfg.Op == Reduce && nc.EastSinks})
	if err != nil {
		return nil, err
	}
	d := &Driver{
		nw:    nw,
		cfg:   cfg,
		plan:  plan,
		rows:  nc.Rows,
		cols:  nc.Cols,
		nodes: nc.Rows * nc.Cols,
	}
	d.Init(d, d.nodes, cfg.Rounds, nc.PayloadBits)
	d.rowSum = make([]uint64, d.rows)
	d.l2Ready = make([]bool, d.rows)
	d.l2Sent = make([]bool, d.rows)
	d.got = make([]bool, d.nodes)
	d.bcastDests = plan.Dests(nw.Topology())
	d.res = Result{
		Op: cfg.Op, Algorithm: cfg.Algorithm,
		Rows: d.rows, Cols: d.cols, Rounds: cfg.Rounds,
		Sums: make([]uint64, cfg.Rounds),
	}
	if d.hasBroadcast() {
		d.res.NodeValues = make([][]uint64, cfg.Rounds)
	}
	return d, nil
}

// Plan returns the driver's reduction tree.
func (d *Driver) Plan() *TreePlan { return d.plan }

func (d *Driver) hasReduce() bool    { return d.cfg.Op != Broadcast }
func (d *Driver) hasBroadcast() bool { return d.cfg.Op != Reduce }
func (d *Driver) treeLevels() bool   { return d.cfg.Algorithm != AlgFlat }

// Injected reports whether the final round has nothing left to inject:
// every leaf released, every row sum relayed, the broadcast leg sent
// (workload.Driver: overlap successors may start while the tail drains).
func (d *Driver) Injected() bool {
	return d.Done() || (d.Loop.Injected() && d.l2Left == 0 && (!d.hasBroadcast() || d.bcastSent))
}

// rowID, columnID and broadcastID name the round's reduction channels.
func (d *Driver) rowID(row int) uint64 {
	return flit.TaggedReduceID(d.Tag(), row, uint32(d.Round()))
}

func (d *Driver) columnID() uint64 {
	return flit.TaggedReduceID(d.Tag(), d.rows+rowIDColumnOffset, uint32(d.Round()))
}

func (d *Driver) broadcastID() uint64 {
	return flit.TaggedReduceID(d.Tag(), d.rows+rowIDBroadcastOffset, uint32(d.Round()))
}

// leafValue returns the operand PE id contributes in the given round:
// reduce.Operand, unless Config.Values overrides it.
func (d *Driver) leafValue(id, round int) uint64 {
	if d.cfg.Values != nil {
		return d.cfg.Values(id, round)
	}
	return reduce.Operand(id, round)
}

// rootValue derives the value a pure broadcast fans out in the given
// round (Config.BroadcastValues overrides).
func (d *Driver) rootValue(round int) uint64 {
	if d.cfg.BroadcastValues != nil {
		return d.cfg.BroadcastValues[round]
	}
	return (uint64(round)+11)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
}

// BeginRound resets the round's accounts and loads the oracle
// (round.Hooks). Reduce ops declare every PE a leaf, ready after the compute
// latency; a pure broadcast declares none and only times the root.
func (d *Driver) BeginRound(now int64) {
	r := d.Round()
	d.oracle.Reset()
	d.reduceDone = false
	d.bcastSent = false
	d.gotCount = 0
	clear(d.got)
	if d.hasBroadcast() {
		d.res.NodeValues[r] = make([]uint64, d.nodes)
	}

	if !d.hasReduce() {
		d.rootReadyAt = now + int64(d.cfg.ComputeLatency)
		d.WakeAt(d.rootReadyAt)
		d.bcastVal = d.rootValue(r)
		d.res.Sums[r] = d.bcastVal
		return
	}

	clear(d.l2Ready)
	clear(d.l2Sent)
	d.l2Left = 0
	if d.treeLevels() {
		d.l2Left = d.rows
	}
	topo := d.nw.Topology()
	cid := d.columnID()
	for row := 0; row < d.rows; row++ {
		rid := d.rowID(row)
		for col := 0; col < d.cols; col++ {
			id := int(topo.ID(topology.Coord{Row: row, Col: col}))
			d.Ready(id, now+int64(d.cfg.ComputeLatency))
			v := d.leafValue(id, r)
			if d.treeLevels() {
				d.oracle.Add(rid, v)
			}
			d.oracle.Add(cid, v)
		}
	}
	d.bcastVal = d.oracle.Sum(cid)
	d.res.Sums[r] = d.bcastVal
}

// Inject submits PE id's operand (round.Hooks): into its row's level-1
// collection (tree/fused), or straight to the root (flat).
func (d *Driver) Inject(id int, cycle int64) {
	node := topology.NodeID(id)
	if d.cfg.Algorithm == AlgFlat {
		p := d.Payload(node, d.plan.Root, d.columnID(), d.leafValue(id, d.Round()), 1, cycle)
		d.nw.NIC(node).SendUnicastPayload(d.Tag(), d.plan.Root, p)
		return
	}
	coord := d.nw.Topology().Coord(node)
	line := &d.plan.Rows[coord.Row]
	p := d.Payload(node, line.Target, d.rowID(coord.Row), d.leafValue(id, d.Round()), 1, cycle)
	d.nw.Submit(line, coord.Col, d.cfg.Algorithm.scheme(), d.Tag(), p)
}

// Advance relays completed row sums, launches the broadcast leg once its
// value is ready and reports whether the round is complete (round.Hooks):
// every node holds the broadcast, or for a pure reduce the root
// account verified.
func (d *Driver) Advance(cycle int64) bool {
	if d.treeLevels() {
		d.releaseRowSums(cycle)
	}
	d.maybeBroadcast(cycle)
	if d.hasBroadcast() {
		return d.gotCount >= d.nodes
	}
	return d.reduceDone
}

// RoundClosed samples the closed rounds' latency (round.Hooks).
func (d *Driver) RoundClosed(latency int64, n int) {
	d.res.RoundCycles.ObserveN(float64(latency), n)
}

// releaseRowSums relays completed row sums into the column stage: the
// east-column PE that folded (or received) its row's sum submits it as a
// cols-operand payload toward the root.
func (d *Driver) releaseRowSums(cycle int64) {
	if d.l2Left == 0 {
		return
	}
	for row := 0; row < d.rows; row++ {
		if !d.l2Ready[row] || d.l2Sent[row] {
			continue
		}
		d.l2Sent[row] = true
		d.l2Left--
		east := d.plan.Rows[row].Target
		p := d.Payload(east, d.plan.Root, d.columnID(), d.rowSum[row], d.cols, cycle)
		d.nw.Submit(&d.plan.Column, row, d.cfg.Algorithm.scheme(), d.Tag(), p)
	}
}

// maybeBroadcast launches the broadcast leg once the round's value is
// ready: the reduction completed (AllReduce) or the root's compute
// finished (Broadcast). Tree and fused send one multicast packet over the
// XY tree; flat unicasts to every node. The root addresses itself too, so
// every node's receipt flows through the same ejection accounting.
func (d *Driver) maybeBroadcast(cycle int64) {
	if !d.hasBroadcast() || d.bcastSent {
		return
	}
	if d.cfg.Op == AllReduce {
		if !d.reduceDone {
			return
		}
	} else if cycle < d.rootReadyAt {
		d.WakeAt(d.rootReadyAt)
		return
	}
	d.bcastSent = true
	root := d.plan.Root
	n := d.nw.NIC(root)
	bid := d.broadcastID()
	flits := d.nw.Config().UnicastFlits
	if d.cfg.Algorithm == AlgFlat {
		for id := 0; id < d.nodes; id++ {
			p := d.Payload(root, topology.NodeID(id), bid, d.bcastVal, 1, cycle)
			n.SendUnicastPayload(d.Tag(), topology.NodeID(id), p)
		}
		return
	}
	p := d.Payload(root, root, bid, d.bcastVal, 1, cycle)
	n.SendMulticastPayload(d.Tag(), d.bcastDests, flits, p)
}

// OnPacket records one arriving packet and dispatches its payloads
// (workload.Run wires it as the receive callback; a scheduler dispatches
// this phase's tagged packets to it). Broadcast receipts are attributed to
// the ejecting node (ReceivedPacket.At); payloads tagged for another driver —
// picked up en route by this phase's collective packet — are routed
// through the foreign handler instead. A delivery is what can move the round
// on, so it wakes the round loop.
func (d *Driver) OnPacket(p *nic.ReceivedPacket) {
	d.Wake()
	d.res.PacketLatency.Observe(float64(p.Latency()))
	d.Route(p, func(pl flit.Payload) {
		if flit.ReduceIDRow(pl.ReduceID) == d.rows+rowIDBroadcastOffset {
			d.onBroadcast(pl, p.At)
			return
		}
		d.OnPayload(pl)
	})
}

// onBroadcast accounts one broadcast delivery at node `at`: exactly one
// receipt per node per round, carrying exactly the round's value.
func (d *Driver) onBroadcast(pl flit.Payload, at topology.NodeID) {
	if flit.ReduceIDTag(pl.ReduceID) != d.Tag() ||
		flit.ReduceIDRound(pl.ReduceID) != uint32(d.Round()) ||
		int(at) >= d.nodes || d.got[at] {
		d.res.BroadcastErrors++
		return
	}
	d.got[at] = true
	d.gotCount++
	d.res.NodeValues[d.Round()][at] = pl.Value
	if pl.Value != d.bcastVal {
		d.res.BroadcastErrors++
	}
}

// OnPayload folds one delivered reduction payload into its account — a
// row's level-1 sum at the row target, or the column stage at the root —
// which the oracle verifies once complete (reduce.Oracle.Fold). A completed
// row's sum is staged for the column relay; the completed root finishes the
// round's reduce leg. A payload whose ReduceID names no reduction of this
// driver's tag and the current round, or that arrives after its reduction
// completed, is an oracle error (workload.PayloadSink).
func (d *Driver) OnPayload(pl flit.Payload) {
	d.Wake()
	sum, complete, err := d.oracle.Fold(pl)
	if err != nil {
		d.res.OracleErrors++
	}
	if !complete {
		return
	}
	if row := flit.ReduceIDRow(pl.ReduceID); row < d.rows {
		d.rowSum[row] = sum
		d.l2Ready[row] = true
	} else {
		d.reduceDone = true
	}
}

// Result finalizes the run-wide result of a driver run alone, cycles long:
// network counters plus the flits that crossed the tree root's ejection
// point. Call it once, after Drained.
func (d *Driver) Result(cycles int64) *Result {
	r := &d.res
	r.Cycles = cycles
	r.Activity = d.nw.Activity()
	nics := d.nw.NICTotals()
	r.SelfInitiated = nics.SelfInitiated()
	r.Merges = nics.PiggybackAcks + nics.MergeAcks
	ej := d.nw.Ejector(d.plan.Root)
	r.RootFlits = ej.FlitsEjected.Value()
	r.RootPackets = ej.PacketsEjected.Value()
	return r
}

// Snapshot returns the driver-local result fields (latencies, sums,
// per-node values, error counts) without aggregating network-wide
// counters — the accessor scheduler-driven phases use, where concurrent
// phases share those counters.
func (d *Driver) Snapshot() *Result { return &d.res }
