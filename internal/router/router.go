// Package router implements the virtual-channel wormhole router of
// Sec. IV of the paper: a Fig. 5 pipeline (route computation, VC
// allocation, switch allocation, switch traversal) with credit-based flow
// control, round-robin separable allocators, multicast-tree forking, and
// the gather extensions — the Gather Load Generator and Gather Payload
// blocks of Fig. 6 that let a passing gather packet pick up the local PE's
// partial-sum payload with zero added pipeline latency (the upload uses the
// body/tail flits' idle RC/VA stage slots).
//
// The router is fabric-agnostic: route computation delegates to a
// RoutingFunc the network layer builds from its topology.Routing, and the
// Route it returns carries the output ports (deterministic branches or
// adaptive alternatives) plus the dateline VC class torus routing needs
// (Config.VCClasses, DESIGN.md §7).
package router

import (
	"errors"
	"fmt"
	"math/bits"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/reduce"
	"gathernoc/internal/ring"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// Config holds the microarchitectural parameters of one router. The zero
// value is not valid; use DefaultConfig as a base.
type Config struct {
	// VCs is the number of virtual channels per input port (Table I: 4).
	VCs int
	// BufferDepth is the per-VC buffer depth in flits (Table I: 4).
	BufferDepth int
	// RCDelay and VADelay are the route-computation and VC-allocation
	// stage occupancies in cycles (>= 1 each). With 1/1 the per-hop header
	// latency is RC+VA+SA/ST+link = 4 cycles, the κ that reproduces the
	// paper's Table II estimates.
	RCDelay int
	VADelay int
	// GatherVC, when >= 0, dedicates that VC index to gather and
	// accumulate packets: collective packets allocate only it and other
	// traffic never does. This is the mitigation sketched in the paper's
	// conclusion for δ timeouts under mixed traffic. -1 disables the
	// reservation.
	GatherVC int
	// GatherQueueCap bounds the Gather Payload station queue (>= 1).
	GatherQueueCap int
	// ReduceQueueCap bounds the accumulation station queue (>= 1), the
	// INA sibling of GatherQueueCap.
	ReduceQueueCap int
	// VCClasses partitions the virtual channels into dateline classes for
	// deadlock-free torus routing: a packet whose Route carries VCClass k
	// may only allocate downstream VCs of class k (VC v belongs to class
	// v*VCClasses/VCs). 0 or 1 disables the partition — every VC is one
	// class, the mesh configuration, where schedules are bit-identical to
	// the pre-partition router. Must not exceed VCs, and is mutually
	// exclusive with GatherVC (a VC cannot be reserved for collectives and
	// pinned to a dateline class at once).
	VCClasses int
}

// DefaultConfig returns the Table I router configuration.
func DefaultConfig() Config {
	return Config{
		VCs:            4,
		BufferDepth:    4,
		RCDelay:        1,
		VADelay:        1,
		GatherVC:       -1,
		GatherQueueCap: 4,
		ReduceQueueCap: 4,
	}
}

// maxVCs is the largest supported Config.VCs: the router tracks each input
// port's virtual channels in one 64-bit slot mask.
const maxVCs = 64

// ErrTooManyVCs reports a Config.VCs above 64, the width of those masks.
var ErrTooManyVCs = errors.New("router: too many virtual channels")

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VCs < 1:
		return fmt.Errorf("router: VCs must be >= 1, got %d", c.VCs)
	case c.VCs > maxVCs:
		return fmt.Errorf("%w: VCs must be <= %d, got %d", ErrTooManyVCs, maxVCs, c.VCs)
	case c.BufferDepth < 1:
		return fmt.Errorf("router: BufferDepth must be >= 1, got %d", c.BufferDepth)
	case c.RCDelay < 1 || c.VADelay < 1:
		return fmt.Errorf("router: stage delays must be >= 1, got RC=%d VA=%d", c.RCDelay, c.VADelay)
	case c.GatherVC >= c.VCs:
		return fmt.Errorf("router: GatherVC %d out of range (VCs=%d)", c.GatherVC, c.VCs)
	case c.VCClasses < 0 || c.VCClasses > c.VCs:
		return fmt.Errorf("router: VCClasses %d out of range (VCs=%d)", c.VCClasses, c.VCs)
	case c.VCClasses > 1 && c.GatherVC >= 0:
		return fmt.Errorf("router: GatherVC %d incompatible with VCClasses %d (a VC cannot serve both policies)", c.GatherVC, c.VCClasses)
	}
	return nil
}

// Route describes where a flit leaves the router: one branch for unicast
// and gather packets, one or more for multicast, with LocalPort used for
// ejection to the attached NIC or edge sink.
//
// For adaptive routing algorithms, Adaptive lists alternative productive
// output ports for a single-destination packet; the router then selects
// the alternative with the most downstream credit at route-computation
// time (deterministic: ties break toward the earlier entry) and ignores
// Branches.
//
// VCClass is the dateline virtual-channel class the hop must allocate its
// downstream VC from (see Config.VCClasses and topology.Routing.VCClass);
// it is 0 for every mesh routing and for multicast trees.
type Route struct {
	Branches []topology.MulticastBranch
	Adaptive []topology.Port
	VCClass  int
}

// RoutingFunc computes the Route for a packet's head flit at node cur. The
// network layer supplies it, which lets the fabric extend node addressing
// beyond the raw mesh (e.g. global-buffer sinks past the east edge).
type RoutingFunc func(cur topology.NodeID, f *flit.Flit) Route

// Counters are the router's activity counts; the power model derives
// dynamic energy from them.
type Counters struct {
	BufferWrites   stats.Counter
	BufferReads    stats.Counter
	RCComputations stats.Counter
	VAAllocations  stats.Counter
	SAGrants       stats.Counter
	Crossings      stats.Counter // crossbar traversals (one per staged flit copy)
	GatherUploads  stats.Counter
	GatherReserves stats.Counter
	ReduceMerges   stats.Counter // operands folded into passing accumulate packets
	ReduceReserves stats.Counter
}

type vcStage uint8

const (
	vcIdle vcStage = iota
	vcRC
	vcVA
	vcActive
)

// branchState tracks one output branch of the packet currently holding an
// input VC.
type branchState struct {
	out    topology.Port
	dsts   *topology.DestSet // multicast subset forwarded on this branch
	vc     int               // allocated downstream VC (-1 until VA)
	sent   bool              // current head-of-buffer flit already copied here
	headMD *topology.DestSet // MDst for the head copy on this branch
}

type inputVC struct {
	buf   ring.Ring[*flit.Flit] // fixed capacity BufferDepth, never grows
	stage vcStage
	wait  int // remaining cycles in the current multi-cycle stage

	branches []branchState
	vcClass  int // dateline class of the packet's current hop (VA restriction)

	// Gather Load Generator state (Fig. 3b / Algorithm 1).
	gatherLoad  bool
	gatherEntry *reduce.Entry

	// Accumulation load state: the local operand reserved against the
	// accumulate packet currently holding this VC (INA merge path).
	reduceLoad  bool
	reduceEntry *reduce.Entry
}

func (v *inputVC) head() *flit.Flit {
	if v.buf.Empty() {
		return nil
	}
	return v.buf.Front()
}

type outputPort struct {
	link    *link.Link
	depth   int   // downstream buffer depth: a VC's credits when all are home
	credits []int // per downstream VC
	// owner[vc] identifies the (inPort, inVC) currently holding the
	// downstream VC; -1 when free.
	ownerPort []int
	ownerVC   []int
}

func (o *outputPort) connected() bool { return o.link != nil }

func (o *outputPort) vcFree(vc int) bool { return o.ownerPort[vc] < 0 }

// Router is one mesh node's switch. It is a phase-1 (tick) component; its
// outgoing links are the matching phase-2 components.
type Router struct {
	id    topology.NodeID
	cfg   Config
	route RoutingFunc

	inputs  [topology.NumPorts][]inputVC
	inLinks [topology.NumPorts]*link.Link // reverse channels for credit return
	outputs [topology.NumPorts]outputPort

	station  *reduce.Station // gather payloads
	rstation *reduce.Station // accumulate operands
	pool     *flit.Pool      // multicast fork copies; forked originals return here

	saInputArb  [topology.NumPorts]*rrArbiter // per input port, across its VCs
	saOutputArb [topology.NumPorts]*rrArbiter // per output port, across input-port candidates

	wake *sim.Handle // engine wake-up, armed on flit/credit arrival

	// probe, when non-nil, records sampled pipeline-stage events for the
	// flit-lifecycle tracer. Every hook is behind a nil-check, so the
	// telemetry-off path does no extra work (DESIGN.md §11).
	probe *telemetry.Probe

	// Stage occupancy counters, maintained incrementally so Tick can skip
	// whole pipeline stages (and Idle can answer) in O(1) instead of
	// scanning every (port, VC) ring. They never influence *what* a stage
	// does — only whether a stage that would be a pure no-op runs at all —
	// so schedules are bit-identical with the scanning implementation.
	buffered  int // flits held across all input VC buffers
	loads     int // raised gather/accumulate Load signals awaiting upload
	vaPending int // input VCs in the vcVA stage
	active    int // input VCs in the vcActive stage

	// Slot masks, one word per input port with bit v standing for VC v,
	// maintained beside the counters above and under the same rule. They
	// let a stage that does run visit only the slots it could act on.
	occMask [topology.NumPorts]uint64 // buffer non-empty
	vaMask  [topology.NumPorts]uint64 // stage == vcVA
	actMask [topology.NumPorts]uint64 // stage == vcActive

	// clockTies counts the VA passes the cycle-derived rotation may have
	// decided (ClockTies).
	clockTies uint64

	// Counters is exported for the power model and reports.
	Counters Counters
}

// New constructs a router for node id using the given routing function.
func New(id topology.NodeID, cfg Config, routeFn RoutingFunc) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if routeFn == nil {
		return nil, fmt.Errorf("router %d: nil routing function", id)
	}
	r := &Router{id: id, cfg: cfg, route: routeFn}
	for p := 0; p < topology.NumPorts; p++ {
		// The VC buffer rings stay zero-valued and grow to BufferDepth on
		// first use; acceptFlit bounds occupancy before every push, so
		// they never grow past the configured depth (modulo the ring's
		// power-of-two rounding) and idle VCs cost no backing array.
		r.inputs[p] = make([]inputVC, cfg.VCs)
		r.saInputArb[p] = newRRArbiter(cfg.VCs)
		r.saOutputArb[p] = newRRArbiter(topology.NumPorts)
	}
	r.station = reduce.NewStation(cfg.GatherQueueCap)
	r.rstation = reduce.NewStation(cfg.ReduceQueueCap)
	return r, nil
}

// ID returns the node this router serves.
func (r *Router) ID() topology.NodeID { return r.id }

// SetWake attaches the engine wake handle; flit and credit arrivals arm it
// so a sleeping router is re-evaluated. Routers work without one (nil
// handles ignore Wake), which standalone unit tests rely on.
func (r *Router) SetWake(h *sim.Handle) { r.wake = h }

// SetFlitPool attaches the network's flit pool: multicast fork copies are
// acquired from it and forked originals released back. Routers work
// without one (a nil pool falls back to the garbage collector).
func (r *Router) SetFlitPool(p *flit.Pool) { r.pool = p }

// SetTelemetry attaches the owning shard's telemetry probe (nil disables
// tracing; the default).
func (r *Router) SetTelemetry(p *telemetry.Probe) { r.probe = p }

// MaxVCOccupancy returns the deepest input VC buffer in flits — the
// congestion gauge the telemetry epoch collector snapshots alongside the
// total occupancy.
func (r *Router) MaxVCOccupancy() int {
	m := 0
	for p := 0; p < topology.NumPorts; p++ {
		for v := range r.inputs[p] {
			if n := r.inputs[p][v].buf.Len(); n > m {
				m = n
			}
		}
	}
	return m
}

// Idle implements sim.Idler: with every input buffer empty the router's
// tick is a pure no-op (stages only act on buffered flits, the SA arbiters
// only rotate past a winner, and the VA rotation is derived from the cycle
// number), so the engine may skip the router until a flit or credit
// arrives. Buffer occupancy is counted incrementally, so the check is O(1).
func (r *Router) Idle() bool { return r.buffered == 0 }

// ConnectOutput attaches l as the outgoing channel on port p; downstreamDepth
// is the buffer depth of the receiving input VCs (credit initialization).
func (r *Router) ConnectOutput(p topology.Port, l *link.Link, downstreamVCs, downstreamDepth int) {
	o := &r.outputs[p]
	o.link = l
	o.depth = downstreamDepth
	o.credits = make([]int, downstreamVCs)
	o.ownerPort = make([]int, downstreamVCs)
	o.ownerVC = make([]int, downstreamVCs)
	for v := 0; v < downstreamVCs; v++ {
		o.credits[v] = downstreamDepth
		o.ownerPort[v] = -1
		o.ownerVC[v] = -1
	}
}

// ConnectedOutputs returns the set of output ports with a channel attached,
// bit p standing for port p. It is the one thing that tells apart the
// just-built States of two routers of the same Config wired with the same
// downstream VC count and depth: the edges of a mesh leave ports dangling.
func (r *Router) ConnectedOutputs() uint8 {
	var set uint8
	for p := range r.outputs {
		if r.outputs[p].connected() {
			set |= 1 << p
		}
	}
	return set
}

// ConnectInput records the reverse channel used to return credits for
// flits consumed from input port p.
func (r *Router) ConnectInput(p topology.Port, reverse *link.Link) {
	r.inLinks[p] = reverse
}

// InputSink returns a link.FlitSink delivering into input port p.
func (r *Router) InputSink(p topology.Port) link.FlitSink {
	return &portSink{r: r, port: p}
}

// CreditSink returns a link.CreditSink crediting output port p.
func (r *Router) CreditSink(p topology.Port) link.CreditSink {
	return &portCredit{r: r, port: p}
}

type portSink struct {
	r    *Router
	port topology.Port
}

func (s *portSink) AcceptFlit(f *flit.Flit, vc int) { s.r.acceptFlit(s.port, f, vc) }

type portCredit struct {
	r    *Router
	port topology.Port
}

func (s *portCredit) AcceptCredit(vc int) { s.r.acceptCredit(s.port, vc) }

func (r *Router) acceptFlit(p topology.Port, f *flit.Flit, vc int) {
	in := &r.inputs[p][vc]
	if in.buf.Len() >= r.cfg.BufferDepth {
		// Credit-protocol violation: upstream sent into a full buffer.
		// This is an internal simulator bug, not a runtime condition.
		panic(fmt.Sprintf("router %d: input %s vc%d overflow (%s)", r.id, p, vc, f))
	}
	in.buf.PushBack(f)
	r.buffered++
	r.occMask[p] |= 1 << vc
	f.Hops++
	r.Counters.BufferWrites.Inc()
	r.wake.Wake()
}

func (r *Router) acceptCredit(p topology.Port, vc int) {
	o := &r.outputs[p]
	if vc < len(o.credits) {
		o.credits[vc]++
	}
	r.wake.Wake()
}

// OfferGatherPayload hands the local PE's payload to the Gather Payload
// station; ack fires when a passing gather packet picked it up. It returns
// false when the station queue is full.
func (r *Router) OfferGatherPayload(p flit.Payload, ack AckFunc) bool {
	return r.station.Offer(p, ack)
}

// RetractGatherPayload removes a not-yet-reserved payload from the station
// (δ-timeout path). It returns false when the payload is gone or already
// reserved by an in-flight packet.
func (r *Router) RetractGatherPayload(seq uint64) bool {
	return r.station.Retract(seq)
}

// GatherBacklog reports how many payloads sit in the station.
func (r *Router) GatherBacklog() int { return r.station.Backlog() }

// OfferReduceOperand hands the local PE's partial-sum operand to the
// accumulation station; ack fires when a passing accumulate packet merged
// it. It returns false when the station queue is full.
func (r *Router) OfferReduceOperand(op flit.Payload, ack reduce.AckFunc) bool {
	return r.rstation.Offer(op, ack)
}

// RetractReduceOperand removes a not-yet-reserved operand from the
// accumulation station (δ-timeout path). It returns false when the operand
// is gone or already reserved by an in-flight packet.
func (r *Router) RetractReduceOperand(seq uint64) bool {
	return r.rstation.Retract(seq)
}

// ReduceBacklog reports how many operands sit in the accumulation station.
func (r *Router) ReduceBacklog() int { return r.rstation.Backlog() }

// BufferedFlits reports the total flits currently held in input buffers;
// the network layer uses it for drain detection.
func (r *Router) BufferedFlits() int { return r.buffered }

// Tick advances the router by one cycle. Stages run in reverse pipeline
// order (gather upload, SA/ST, VA, RC) so a flit progresses through at most
// one stage per cycle.
//
// An idle router's tick is a pure no-op (the Idle contract the sleep/wake
// engine already relies on), so it returns immediately; a busy router runs
// only the stages with work, using the occupancy counters: a stage whose
// skip condition holds would touch nothing (the SA arbiters only rotate
// past a winner and the VA rotation is derived from the cycle number), so
// eliding it changes no schedule.
func (r *Router) Tick(cycle int64) {
	if r.buffered == 0 {
		return
	}
	if r.loads > 0 {
		r.gatherUploadStage(cycle)
	}
	if r.active > 0 {
		r.switchStage(cycle)
	}
	if r.vaPending > 0 {
		r.vaStage(cycle)
	}
	r.rcStage(cycle)
}

// gatherUploadStage writes reserved payloads into head-of-buffer body/tail
// flits of loaded gather packets, and folds reserved operands into
// head-of-buffer accumulate flits (the INA merge). Per Sec. IV this reuses
// the RC/VA slots that body flits leave idle, so it costs no extra cycles:
// the upload or merge happens while the flit waits for switch allocation.
func (r *Router) gatherUploadStage(cycle int64) {
	for p := 0; p < topology.NumPorts; p++ {
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			if vc.gatherLoad && vc.gatherEntry != nil {
				f := vc.head()
				if f != nil && f.PT == flit.Gather && !f.Type.IsHead() &&
					f.AddPayload(vc.gatherEntry.Operand()) {
					r.station.Complete(vc.gatherEntry)
					r.Counters.GatherUploads.Inc()
					if r.probe != nil && r.probe.Sampled(f.PacketID) {
						r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvGatherUpload,
							Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(f.Payloads[len(f.Payloads)-1].Src)})
					}
					vc.gatherEntry = nil
					vc.gatherLoad = false
					r.loads--
				}
			}
			if vc.reduceLoad && vc.reduceEntry != nil {
				f := vc.head()
				if f != nil && f.PT == flit.Accumulate && !f.Type.IsHead() &&
					f.MergePayload(vc.reduceEntry.Operand()) {
					r.rstation.Complete(vc.reduceEntry)
					r.Counters.ReduceMerges.Inc()
					if r.probe != nil && r.probe.Sampled(f.PacketID) {
						r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvReduceMerge,
							Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(vc.reduceEntry.Operand().Src)})
					}
					vc.reduceEntry = nil
					vc.reduceLoad = false
					r.loads--
				}
			}
		}
	}
}

// rcStage starts and completes route computation for heads of newly
// arrived packets, and runs the Gather Load Generator on gather headers
// (Algorithm 1, lines 1-4).
func (r *Router) rcStage(cycle int64) {
	for p := 0; p < topology.NumPorts; p++ {
		// Only a VC holding a flit and not yet past RC can act here: an
		// idle VC needs a head to start on, and one in vcRC still holds its.
		for m := r.occMask[p] &^ (r.vaMask[p] | r.actMask[p]); m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			vc := &r.inputs[p][v]
			switch vc.stage {
			case vcIdle:
				if !vc.buf.Front().IsHead() {
					continue
				}
				vc.stage = vcRC
				vc.wait = r.cfg.RCDelay - 1
				if vc.wait == 0 {
					r.completeRC(p, v, cycle)
				}
			case vcRC:
				if vc.wait > 0 {
					vc.wait--
				}
				if vc.wait == 0 {
					r.completeRC(p, v, cycle)
				}
			}
		}
	}
}

func (r *Router) completeRC(p, v int, cycle int64) {
	vc := &r.inputs[p][v]
	f := vc.head()
	rt := r.route(r.id, f)
	vc.vcClass = rt.VCClass
	vc.branches = vc.branches[:0]
	if len(rt.Adaptive) > 0 {
		vc.branches = append(vc.branches, branchState{out: r.pickAdaptive(rt.Adaptive), vc: -1})
	} else {
		for _, br := range rt.Branches {
			bs := branchState{out: br.Out, dsts: br.Dsts, vc: -1}
			if f.PT == flit.Multicast {
				bs.headMD = br.Dsts
			}
			vc.branches = append(vc.branches, bs)
		}
	}
	r.Counters.RCComputations.Inc()
	if r.probe != nil && r.probe.Sampled(f.PacketID) {
		r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvRC,
			Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id)})
	}

	// Gather Load Generator: reserve the local payload against this packet
	// and decrement ASpace in the header (Fig. 3b). The paper splits the
	// load-signal generation (RC stage) and the ASpace update (VA stage);
	// both are internal to the head's pipeline transit, so we apply them
	// together at RC completion with identical external timing.
	if f.PT == flit.Gather && f.IsHead() && f.ASpace >= 1 {
		if e, ok := r.station.ReserveByDst(f.Dst); ok {
			f.ASpace--
			vc.gatherLoad = true
			vc.gatherEntry = e
			r.loads++
			r.Counters.GatherReserves.Inc()
		}
	}

	// Accumulation load: reserve the local operand against a passing
	// accumulate header with merge budget left, decrementing ASpace —
	// the INA twin of the Gather Load Generator, with the reservation
	// additionally matched on the packet's reduction ID.
	if f.PT == flit.Accumulate && f.IsHead() && f.ASpace >= 1 {
		if e, ok := r.rstation.Reserve(f.Dst, f.ReduceID); ok {
			f.ASpace--
			vc.reduceLoad = true
			vc.reduceEntry = e
			r.loads++
			r.Counters.ReduceReserves.Inc()
		}
	}

	vc.stage = vcVA
	vc.wait = r.cfg.VADelay - 1
	r.vaPending++
	r.vaMask[p] |= 1 << v
}

// vaStage allocates downstream VCs to packets that completed RC. Multicast
// packets must secure a VC on every branch before activating; partial
// allocations persist across cycles.
//
// The (port,vc) scan rotation advances once per cycle for fairness. It is
// derived from the cycle number rather than stored, which keeps an idle
// router's tick stateless — a prerequisite for sleep/wake scheduling to be
// bit-identical with the always-tick engine.
func (r *Router) vaStage(cycle int64) {
	nv := r.cfg.VCs
	start := int(cycle % int64(topology.NumPorts*nv))
	p0 := start / nv
	below := uint64(1)<<(start-p0*nv) - 1 // VCs of port p0 the rotation reaches last
	if r.vaPending > 1 {
		// The order in which the rotation serves the VCs can decide what
		// each is granted only when there are two.
		r.clockTies++
	}
	// No VC enters vcVA during this pass (only rcStage, which runs later,
	// promotes into it), so each port's mask can be read when the rotation
	// reaches the port.
	r.vaSlots(p0, r.vaMask[p0]&^below, cycle)
	for p := p0 + 1; p < topology.NumPorts; p++ {
		r.vaSlots(p, r.vaMask[p], cycle)
	}
	for p := 0; p < p0; p++ {
		r.vaSlots(p, r.vaMask[p], cycle)
	}
	r.vaSlots(p0, r.vaMask[p0]&below, cycle)
}

// ClockTies returns how many VA passes so far the rotation may have
// decided: passes that began with two or more VCs in VA. The rotation is
// derived from the cycle number, so a schedule in which this count does
// not move is the same whatever cycle it starts at.
func (r *Router) ClockTies() uint64 { return r.clockTies }

// ClockPeriod returns the period, in cycles, of the VA rotation.
func (r *Router) ClockPeriod() int64 { return int64(topology.NumPorts * r.cfg.VCs) }

// vaSlots runs VC allocation for the VCs of input port cp named in m, in
// ascending order.
func (r *Router) vaSlots(cp int, m uint64, cycle int64) {
	for ; m != 0; m &= m - 1 {
		cv := bits.TrailingZeros64(m)
		vc := &r.inputs[cp][cv]
		if vc.wait > 0 {
			vc.wait--
			continue
		}
		f := vc.head()
		if f == nil {
			continue
		}
		done := true
		for i := range vc.branches {
			br := &vc.branches[i]
			if br.vc >= 0 {
				continue
			}
			out := &r.outputs[br.out]
			if !out.connected() {
				panic(fmt.Sprintf("router %d: route to unconnected port %s for %s", r.id, br.out, f))
			}
			alloc := -1
			for dv := 0; dv < len(out.credits); dv++ {
				if !r.vcAllowed(f.PT, dv, len(out.credits), vc.vcClass, br.out != topology.LocalPort) {
					continue
				}
				if out.vcFree(dv) {
					alloc = dv
					break
				}
			}
			if alloc < 0 {
				done = false
				continue
			}
			out.ownerPort[alloc] = cp
			out.ownerVC[alloc] = cv
			br.vc = alloc
			r.Counters.VAAllocations.Inc()
		}
		if done {
			vc.stage = vcActive
			r.vaPending--
			r.active++
			r.vaMask[cp] &^= 1 << cv
			r.actMask[cp] |= 1 << cv
			if r.probe != nil && f.IsHead() && r.probe.Sampled(f.PacketID) {
				r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvVA,
					Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id)})
			}
		}
	}
}

// pickAdaptive selects the productive port with the most downstream
// credit; ties break toward the earlier alternative, keeping the
// simulation deterministic.
func (r *Router) pickAdaptive(alts []topology.Port) topology.Port {
	best := alts[0]
	bestCredit := -1
	for _, p := range alts {
		out := &r.outputs[p]
		if !out.connected() {
			continue
		}
		total := 0
		for _, c := range out.credits {
			total += c
		}
		if total > bestCredit {
			best = p
			bestCredit = total
		}
	}
	return best
}

// vcAllowed applies the downstream-VC policies for a channel with nVCs
// virtual channels. With VCClasses > 1 the VCs are partitioned into
// dateline classes and the packet may only allocate within class (the
// torus deadlock-avoidance scheme); otherwise the dedicated-collective-VC
// policy applies: gather and accumulate packets share the reserved VC,
// all other traffic keeps off it. The two policies are mutually exclusive
// (Config.Validate).
//
// datelined is false for the ejection channel (the LocalPort output):
// ejectors drain unconditionally, so ejection channels are pure sinks of
// the dependency graph and need no class partition — restricting them
// would halve ejection parallelism on the torus for nothing.
func (r *Router) vcAllowed(pt flit.PacketType, vc, nVCs, class int, datelined bool) bool {
	if c := r.cfg.VCClasses; c > 1 && datelined {
		return vc*c/nVCs == class
	}
	g := r.cfg.GatherVC
	if g < 0 || g >= nVCs {
		return true
	}
	if pt == flit.Gather || pt == flit.Accumulate {
		return vc == g
	}
	return vc != g
}

// switchStage performs switch allocation and traversal: per input port one
// candidate VC (round-robin), per output port one grant (round-robin);
// granted flits are copied onto their branch links and retired once every
// branch has been served.
func (r *Router) switchStage(cycle int64) {
	// Input arbitration: one candidate VC per input port, the first ready
	// one in the arbiter's round-robin order. Only active VCs holding a flit
	// can be ready, so the scan walks that mask rotated to start at the
	// arbiter's pointer; it advances the arbiters exactly as rrArbiter.pick
	// would, so grant rotations replay identically. requests[p] is the set
	// of output ports port p's candidate asks for (zero: no candidate), and
	// requested their union.
	var candidate [topology.NumPorts]int
	var requests [topology.NumPorts]uint8
	var requested uint8
	for p := 0; p < topology.NumPorts; p++ {
		m := r.actMask[p] & r.occMask[p]
		if m == 0 {
			continue
		}
		arb := r.saInputArb[p]
		in := r.inputs[p]
		for rot := (m>>arb.next | m<<(arb.n-arb.next)) & (1<<arb.n - 1); rot != 0; rot &= rot - 1 {
			idx := bits.TrailingZeros64(rot) + arb.next
			if idx >= arb.n {
				idx -= arb.n
			}
			if req := r.requestedOutputs(&in[idx]); req != 0 {
				arb.next = idx + 1
				if arb.next == arb.n {
					arb.next = 0
				}
				candidate[p] = idx
				requests[p] = req
				requested |= req
				break
			}
		}
	}
	if requested == 0 {
		return
	}

	// Output arbitration: for each requested output port, grant one
	// requesting input.
	type grant struct {
		inPort int
		inVC   int
		branch int
	}
	var grants [topology.NumPorts]grant
	nGrants := 0
	for out := 0; out < topology.NumPorts; out++ {
		if requested&(1<<out) == 0 {
			continue
		}
		arb := r.saOutputArb[out]
		idx := arb.next
		for off := 0; off < arb.n; off++ {
			if idx >= arb.n {
				idx -= arb.n
			}
			if requests[idx]&(1<<out) != 0 {
				v := candidate[idx]
				arb.next = idx + 1
				if arb.next == arb.n {
					arb.next = 0
				}
				grants[nGrants] = grant{inPort: idx, inVC: v, branch: r.branchRequesting(&r.inputs[idx][v], topology.Port(out))}
				nGrants++
				r.Counters.SAGrants.Inc()
				break
			}
			idx++
		}
	}

	// Switch traversal: copy flits onto links, then retire fully-served
	// flits. touched records input VCs that sent at least one copy this
	// cycle (a multicast flit may win several output ports at once); it is
	// iterated in input-port order to keep the simulation deterministic.
	var touched [topology.NumPorts]int
	for p := range touched {
		touched[p] = -1
	}
	for _, g := range grants[:nGrants] {
		vc := &r.inputs[g.inPort][g.inVC]
		f := vc.head()
		br := &vc.branches[g.branch]
		out := &r.outputs[br.out]

		copyF := r.flitForBranch(f, br, len(vc.branches) > 1)
		out.link.Send(copyF, br.vc, cycle)
		out.credits[br.vc]--
		if out.credits[br.vc] < 0 {
			panic(fmt.Sprintf("router %d: negative credit on %s vc%d", r.id, br.out, br.vc))
		}
		br.sent = true
		r.Counters.Crossings.Inc()
		if r.probe != nil && f.IsHead() && r.probe.Sampled(f.PacketID) {
			r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvSA,
				Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(br.out)})
		}

		if f.IsTail() || f.Type == flit.HeadTail {
			// Free the downstream VC at this branch once its copy of the
			// tail has departed.
			out.ownerPort[br.vc] = -1
			out.ownerVC[br.vc] = -1
		}
		touched[g.inPort] = g.inVC
	}

	for p, v := range touched {
		if v < 0 {
			continue
		}
		vc := &r.inputs[p][v]
		if !r.allBranchesSent(vc) {
			continue
		}
		f := vc.buf.PopFront()
		r.buffered--
		if vc.buf.Empty() {
			r.occMask[p] &^= 1 << v
		}
		forked := len(vc.branches) > 1
		r.Counters.BufferReads.Inc()
		if r.inLinks[p] != nil {
			r.inLinks[p].ReturnCredit(v, cycle)
		}
		for i := range vc.branches {
			vc.branches[i].sent = false
		}
		if f.IsTail() {
			if vc.gatherLoad {
				if vc.gatherEntry != nil {
					// The packet left before the upload could complete;
					// return the payload so the δ-timeout can recover it.
					r.station.Release(vc.gatherEntry)
					vc.gatherEntry = nil
				}
				vc.gatherLoad = false
				r.loads--
			}
			if vc.reduceLoad {
				if vc.reduceEntry != nil {
					r.rstation.Release(vc.reduceEntry)
					vc.reduceEntry = nil
				}
				vc.reduceLoad = false
				r.loads--
			}
			vc.branches = vc.branches[:0]
			vc.stage = vcIdle
			r.active--
			r.actMask[p] &^= 1 << v
		}
		if forked {
			// Forked packets sent pool copies on every branch; the
			// original retires here without ever leaving the router.
			// Released last: Release resets the flit.
			r.pool.Release(f)
		}
	}
}

// requestedOutputs returns the output ports, as a bitset, that the head flit
// of an active input VC can move to this cycle: those of its unserved
// branches with downstream credit. Zero means the VC is not ready.
func (r *Router) requestedOutputs(vc *inputVC) uint8 {
	var req uint8
	for i := range vc.branches {
		br := &vc.branches[i]
		if !br.sent && r.outputs[br.out].credits[br.vc] > 0 {
			req |= 1 << br.out
		}
	}
	return req
}

// branchRequesting returns the index of the unserved credited branch of vc
// aimed at out, or -1.
func (r *Router) branchRequesting(vc *inputVC, out topology.Port) int {
	for i := range vc.branches {
		br := &vc.branches[i]
		if br.out == out && !br.sent && r.outputs[br.out].credits[br.vc] > 0 {
			return i
		}
	}
	return -1
}

// allBranchesSent reports whether the head flit has been copied to every
// branch.
func (r *Router) allBranchesSent(vc *inputVC) bool {
	if len(vc.branches) == 0 {
		return false
	}
	for i := range vc.branches {
		if !vc.branches[i].sent {
			return false
		}
	}
	return true
}

// flitForBranch returns the flit instance to send on a branch: the original
// for single-branch packets, a copy (with the branch's MDst subset on head
// flits) when the packet forks.
func (r *Router) flitForBranch(f *flit.Flit, br *branchState, fork bool) *flit.Flit {
	if !fork {
		if f.IsHead() && f.PT == flit.Multicast && br.headMD != nil {
			f.MDst = br.headMD
		}
		return f
	}
	c := r.pool.Acquire()
	payloads := append(c.Payloads[:0], f.Payloads...)
	*c = *f
	c.Payloads = payloads
	if c.IsHead() && c.PT == flit.Multicast {
		c.MDst = br.headMD
	}
	return c
}
