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

// maxDepth is the largest supported Config.BufferDepth and maxDelay the
// largest RCDelay and VADelay: a VC's occupancy, a credit count and a
// stage's remaining wait are each held in one byte (DESIGN.md §9).
const (
	maxDepth = ring.MaxFixed
	maxDelay = 255
)

// ErrTooManyVCs reports a Config.VCs above 64, the width of those masks.
var ErrTooManyVCs = errors.New("router: too many virtual channels")

// ErrOutOfRange reports a Config.BufferDepth, RCDelay or VADelay above 255,
// the most the byte-wide occupancy, credit count or stage wait that holds
// it can count.
var ErrOutOfRange = errors.New("router: configuration value out of range")

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VCs < 1:
		return fmt.Errorf("router: VCs must be >= 1, got %d", c.VCs)
	case c.VCs > maxVCs:
		return fmt.Errorf("%w: VCs must be <= %d, got %d", ErrTooManyVCs, maxVCs, c.VCs)
	case c.BufferDepth < 1:
		return fmt.Errorf("router: BufferDepth must be >= 1, got %d", c.BufferDepth)
	case c.BufferDepth > maxDepth:
		return fmt.Errorf("%w: BufferDepth must be <= %d, got %d", ErrOutOfRange, maxDepth, c.BufferDepth)
	case c.RCDelay < 1 || c.VADelay < 1:
		return fmt.Errorf("router: stage delays must be >= 1, got RC=%d VA=%d", c.RCDelay, c.VADelay)
	case c.RCDelay > maxDelay || c.VADelay > maxDelay:
		return fmt.Errorf("%w: stage delays must be <= %d, got RC=%d VA=%d", ErrOutOfRange, maxDelay, c.RCDelay, c.VADelay)
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
// input VC. A branch's destination set, which only multicast trees carry,
// lives in the router's cold record (vcSets).
type branchState struct {
	out  topology.Port
	sent bool // current head-of-buffer flit already copied here
	vc   int8 // allocated downstream VC (-1 until VA)
}

// Input VC flags.
const (
	// gatherLoad and reduceLoad are the Load signals: a gather payload
	// (Gather Load Generator, Fig. 3b / Algorithm 1) or an accumulation
	// operand (the INA merge path) is reserved in the router's station
	// against the packet holding the VC (reduce.Station.Held by its slot).
	gatherLoad uint8 = 1 << iota
	reduceLoad
	// withSets marks a packet whose branches carry destination sets, held
	// for its slot in the router's cold record; multicastHead a multicast
	// packet, whose head copy on each branch carries that branch's set.
	withSets
	multicastHead
)

// inputVC is one input virtual channel: the hot per-VC record the pipeline
// stages walk, 22 bytes. Its buffer is a window of the router's slot slab;
// a packet's branches sit inline, one per output port at most.
type inputVC struct {
	buf   ring.Fixed // over the VC's BufferDepth slots (Router.slotsOf)
	stage vcStage
	wait  uint8 // remaining cycles in the current multi-cycle stage
	class uint8 // dateline class of the packet's current hop (VA restriction)
	flags uint8
	nbr   uint8 // branches in use
	br    [topology.NumPorts]branchState
}

// branches returns the branches of the packet holding vc.
func (vc *inputVC) branches() []branchState { return vc.br[:vc.nbr] }

// outVC is an output port's view of one downstream VC: the credits it
// holds and which input VC, if any, owns it.
type outVC struct {
	credits uint8
	// ownerPort and ownerVC identify the (inPort, inVC) currently holding
	// the downstream VC; -1 when free.
	ownerPort int8
	ownerVC   int8
}

func (o *outVC) free() bool { return o.ownerPort < 0 }

// Router is one mesh node's switch. It is a phase-1 (tick) component; its
// outgoing links are the matching phase-2 components.
//
// Its memory is what every cycle's stages read, here and in the slab
// windows it points into (VCs, buffer slots, downstream-VC views), and a
// cold record of what only arrivals, collectives and snapshots reach
// (DESIGN.md §9).
type Router struct {
	id    topology.NodeID
	cfg   *Config // the slab's
	route RoutingFunc

	// vcs[p*VCs+v] is input port p's VC v, its slot; the VC's buffer is
	// slotsOf(slot). outVCs[p*VCs+dv] is output port p's downstream VC dv,
	// meaningful only while outLinks[p] is wired.
	vcs    []inputVC
	slots  []*flit.Flit
	outVCs []outVC

	outLinks [topology.NumPorts]*link.Link
	inLinks  [topology.NumPorts]*link.Link // reverse channels for credit return
	outDepth [topology.NumPorts]uint8      // downstream buffer depth: a VC's credits when all are home

	saInputArb  [topology.NumPorts]rrArbiter // per input port, across its VCs
	saOutputArb [topology.NumPorts]rrArbiter // per output port, across input-port candidates

	// nv and depth are the configuration's VCs and BufferDepth, read by
	// every slot index in the hot record itself.
	nv, depth uint8

	// Stage occupancy counters, maintained incrementally so Tick can skip
	// whole pipeline stages (and Idle can answer) in O(1) instead of
	// scanning every (port, VC) ring. They never influence *what* a stage
	// does — only whether a stage that would be a pure no-op runs at all —
	// so schedules are bit-identical with the scanning implementation.
	buffered  int32 // flits held across all input VC buffers
	loads     int32 // raised gather/accumulate Load signals awaiting upload
	vaPending int32 // input VCs in the vcVA stage
	active    int32 // input VCs in the vcActive stage

	// Slot masks, one word per input port with bit v standing for VC v,
	// maintained beside the counters above and under the same rule. They
	// let a stage that does run visit only the slots it could act on.
	occMask  [topology.NumPorts]uint64 // buffer non-empty
	vaMask   [topology.NumPorts]uint64 // stage == vcVA
	actMask  [topology.NumPorts]uint64 // stage == vcActive
	loadMask [topology.NumPorts]uint64 // a gather or accumulate Load raised

	pool *flit.Pool  // multicast fork copies; forked originals return here
	wake *sim.Handle // engine wake-up, armed on flit arrival
	cold *routerCold

	// probe, when non-nil, records sampled pipeline-stage events for the
	// flit-lifecycle tracer. Every hook is behind a nil-check, so the
	// telemetry-off path does no extra work (DESIGN.md §11).
	probe *telemetry.Probe

	// clockTies counts the VA passes the cycle-derived rotation may have
	// decided (ClockTies).
	clockTies uint64

	// Counters is exported for the power model and reports.
	Counters Counters
}

// routerCold is what a router holds beside the hot record: the link-facing
// views of its ports, its two stations and the destination sets of the
// packets whose branches carry them.
//
// The Gather Payload station is the same reservation state machine the
// accumulation subsystem uses (reserve against a passing header, upload or
// merge during idle pipeline slots, δ-retract recovery), so both protocols
// share reduce.Station: gather reservations match on destination only
// (Station.ReserveByDst), accumulate reservations additionally match the
// reduction ID (Station.Reserve). A reservation is held by the input VC's
// slot, and every upload or merge is acked to the station's owner, the
// local NIC (SetStationOwner).
type routerCold struct {
	views    [topology.NumPorts]portView
	station  reduce.Station // gather payloads
	rstation reduce.Station // accumulate operands
	// sets holds one record per input VC whose packet carries destination
	// sets (withSets), taken when its route is computed and given back
	// (slot -1) when its tail leaves; it grows on the first multicast
	// packets and is reused after.
	sets []vcSets
}

// vcSets is the destination set of each branch of the packet holding input
// VC slot: the multicast subset forwarded on that branch, which its head
// copy carries as MDst when the packet is multicast.
type vcSets struct {
	slot int
	dsts [topology.NumPorts]*topology.DestSet
}

// Slab is the memory of a block of routers of one Config, allocated at
// once so that a router allocates nothing after construction (but the
// destination-set records of its first multicast packets): the routers,
// their cold records, their input VCs, every VC's buffer slots
// (BufferDepth each), and every output's downstream-VC views. A fabric
// builds one per shard, so the routers a shard ticks share no slab with
// another shard's.
type Slab struct {
	cfg     *Config
	routers []Router
	colds   []routerCold
	vcs     []inputVC
	slots   []*flit.Flit
	outVCs  []outVC
}

// NewSlab returns a slab for n routers of configuration cfg.
func NewSlab(cfg Config, n int) (*Slab, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nvc := n * topology.NumPorts * cfg.VCs
	return &Slab{
		cfg:     &cfg,
		routers: make([]Router, n),
		colds:   make([]routerCold, n),
		vcs:     make([]inputVC, nvc),
		slots:   make([]*flit.Flit, nvc*cfg.BufferDepth),
		outVCs:  make([]outVC, nvc),
	}, nil
}

// carve cuts the next n elements off *slab, allocating them afresh once the
// slab is spent.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// New constructs a router for node id out of the slab, using the given
// routing function. Beyond the n routers the slab was made for, it
// allocates each one's memory anew.
func (s *Slab) New(id topology.NodeID, routeFn RoutingFunc) (*Router, error) {
	if routeFn == nil {
		return nil, fmt.Errorf("router %d: nil routing function", id)
	}
	cfg := s.cfg
	r := &carve(&s.routers, 1)[0]
	r.id, r.cfg, r.route = id, cfg, routeFn
	r.nv, r.depth = uint8(cfg.VCs), uint8(cfg.BufferDepth)
	r.cold = &carve(&s.colds, 1)[0]
	nvc := topology.NumPorts * cfg.VCs
	// acceptFlit bounds occupancy before every push, so a VC's window of
	// BufferDepth slots is all it ever needs.
	r.vcs = carve(&s.vcs, nvc)
	r.slots = carve(&s.slots, nvc*cfg.BufferDepth)
	r.outVCs = carve(&s.outVCs, nvc)
	for p := range r.cold.views {
		r.cold.views[p] = portView{r: r, port: topology.Port(p)}
		r.saInputArb[p] = rrArbiter{n: uint8(cfg.VCs)}
		r.saOutputArb[p] = rrArbiter{n: topology.NumPorts}
	}
	r.cold.station = reduce.NewStation(cfg.GatherQueueCap, reduce.GatherStation)
	r.cold.rstation = reduce.NewStation(cfg.ReduceQueueCap, reduce.ReduceStation)
	return r, nil
}

// ID returns the node this router serves.
func (r *Router) ID() topology.NodeID { return r.id }

// SetWake attaches the engine wake handle; flit arrivals arm it so a
// sleeping router is re-evaluated (a credit arrival does not: see Idle).
// Routers work without one (nil handles ignore Wake), which standalone
// unit tests rely on.
func (r *Router) SetWake(h *sim.Handle) { r.wake = h }

// SetFlitPool attaches the network's flit pool: multicast fork copies are
// acquired from it and forked originals released back. Routers work
// without one (a nil pool falls back to the garbage collector).
func (r *Router) SetFlitPool(p *flit.Pool) { r.pool = p }

// SetTelemetry attaches the owning shard's telemetry probe (nil disables
// tracing; the default).
func (r *Router) SetTelemetry(p *telemetry.Probe) { r.probe = p }

// SetStationOwner attaches the processing element behind both stations:
// every payload uploaded and every operand merged is acked to it
// (reduce.Owner).
func (r *Router) SetStationOwner(o reduce.Owner) {
	r.cold.station.SetOwner(o)
	r.cold.rstation.SetOwner(o)
}

// slot returns the index of input port p's VC v.
func (r *Router) slot(p, v int) int { return p*int(r.nv) + v }

// slotsOf returns the buffer slots of input VC slot s.
func (r *Router) slotsOf(s int) []*flit.Flit {
	d := int(r.depth)
	return r.slots[s*d : s*d+d : s*d+d]
}

// head returns the flit at the front of input VC slot s, nil when empty.
func (r *Router) head(s int) *flit.Flit {
	vc := &r.vcs[s]
	if vc.buf.Empty() {
		return nil
	}
	return ring.Front(&vc.buf, r.slotsOf(s))
}

// outVC returns output port p's view of downstream VC dv.
func (r *Router) outVC(p topology.Port, dv int) *outVC { return &r.outVCs[int(p)*int(r.nv)+dv] }

// MaxVCOccupancy returns the deepest input VC buffer in flits — the
// congestion gauge the telemetry epoch collector snapshots alongside the
// total occupancy.
func (r *Router) MaxVCOccupancy() int {
	m := 0
	for s := range r.vcs {
		m = max(m, r.vcs[s].buf.Len())
	}
	return m
}

// Idle implements sim.Idler: with every input buffer empty the router's
// tick is a pure no-op (stages only act on buffered flits, the SA arbiters
// only rotate past a winner, and the VA rotation is derived from the cycle
// number), so the engine may skip the router until a flit arrives. A
// credit arriving meanwhile needs no wake: with no buffered flit there is
// nothing it could unblock, and the flit that will use it wakes the router.
// A router waiting on a credit holds a flit and so never sleeps; were Idle
// ever to admit one, acceptCredit would have to wake it again. Buffer
// occupancy is counted incrementally, so the check is O(1).
func (r *Router) Idle() bool { return r.buffered == 0 }

// ConnectOutput attaches l as the outgoing channel on port p; downstreamDepth
// is the buffer depth of the receiving VCs (credit initialization), at most
// 255. The receiving end has as many VCs as this router: every router and
// ejector of a fabric shares the VC count.
func (r *Router) ConnectOutput(p topology.Port, l *link.Link, downstreamDepth int) {
	if downstreamDepth < 0 || downstreamDepth > maxDepth {
		panic(fmt.Sprintf("router %d: downstream depth %d outside [0, %d]", r.id, downstreamDepth, maxDepth))
	}
	r.outLinks[p] = l
	r.outDepth[p] = uint8(downstreamDepth)
	for dv := 0; dv < r.cfg.VCs; dv++ {
		*r.outVC(p, dv) = outVC{credits: uint8(downstreamDepth), ownerPort: -1, ownerVC: -1}
	}
}

// connected reports whether output port p has a channel attached.
func (r *Router) connected(p topology.Port) bool { return r.outLinks[p] != nil }

// ConnectedOutputs returns the set of output ports with a channel attached,
// bit p standing for port p. It is the one thing that tells apart the
// just-built States of two routers of the same Config wired with the same
// downstream VC count and depth: the edges of a mesh leave ports dangling.
func (r *Router) ConnectedOutputs() uint8 {
	var set uint8
	for p := range r.outLinks {
		if r.connected(topology.Port(p)) {
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
func (r *Router) InputSink(p topology.Port) link.FlitSink { return &r.cold.views[p] }

// CreditSink returns a link.CreditSink crediting output port p.
func (r *Router) CreditSink(p topology.Port) link.CreditSink { return &r.cold.views[p] }

// portView is the link-facing view of one port: the flit sink of its input
// and the credit sink of its output.
type portView struct {
	r    *Router
	port topology.Port
}

func (s *portView) AcceptFlit(f *flit.Flit, vc int) { s.r.acceptFlit(s.port, f, vc) }

// Occupancy returns the flits the input port buffers on vc, its end of the
// credit loop link.Link.CheckInvariants balances.
func (s *portView) Occupancy(vc int) int { return s.r.vcs[s.r.slot(int(s.port), vc)].buf.Len() }

func (s *portView) AcceptCredit(vc int) { s.r.acceptCredit(s.port, vc) }

// Credits returns the credits the output port holds for downstream VC vc.
func (s *portView) Credits(vc int) int { return int(s.r.outVC(s.port, vc).credits) }

func (r *Router) acceptFlit(p topology.Port, f *flit.Flit, vc int) {
	s := r.slot(int(p), vc)
	in := &r.vcs[s]
	if in.buf.Len() >= r.cfg.BufferDepth {
		// Credit-protocol violation: upstream sent into a full buffer.
		// This is an internal simulator bug, not a runtime condition.
		panic(fmt.Sprintf("router %d: input %s vc%d overflow (%s)", r.id, p, vc, f))
	}
	ring.PushBack(&in.buf, r.slotsOf(s), f)
	r.buffered++
	r.occMask[p] |= 1 << vc
	f.Hops++
	r.Counters.BufferWrites.Inc()
	r.wake.Wake()
}

// acceptCredit counts a returned credit. It wakes nothing: see Idle.
func (r *Router) acceptCredit(p topology.Port, vc int) {
	if r.connected(p) && vc < r.cfg.VCs {
		r.outVC(p, vc).credits++
	}
}

// OfferGatherPayload hands the local PE's payload to the Gather Payload
// station; the station's owner is acked when a passing gather packet
// picked it up. It returns false when the station queue is full.
func (r *Router) OfferGatherPayload(p flit.Payload) bool {
	return r.cold.station.Offer(p)
}

// RetractGatherPayload removes a not-yet-reserved payload from the station
// (δ-timeout path). It returns false when the payload is gone or already
// reserved by an in-flight packet.
func (r *Router) RetractGatherPayload(seq uint64) bool {
	return r.cold.station.Retract(seq)
}

// GatherBacklog reports how many payloads sit in the station.
func (r *Router) GatherBacklog() int { return r.cold.station.Backlog() }

// OfferReduceOperand hands the local PE's partial-sum operand to the
// accumulation station; the station's owner is acked when a passing
// accumulate packet merged it. It returns false when the station queue is
// full.
func (r *Router) OfferReduceOperand(op flit.Payload) bool {
	return r.cold.rstation.Offer(op)
}

// RetractReduceOperand removes a not-yet-reserved operand from the
// accumulation station (δ-timeout path). It returns false when the operand
// is gone or already reserved by an in-flight packet.
func (r *Router) RetractReduceOperand(seq uint64) bool {
	return r.cold.rstation.Retract(seq)
}

// ReduceBacklog reports how many operands sit in the accumulation station.
func (r *Router) ReduceBacklog() int { return r.cold.rstation.Backlog() }

// BufferedFlits reports the total flits currently held in input buffers;
// the network layer uses it for drain detection.
func (r *Router) BufferedFlits() int { return int(r.buffered) }

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
		for m := r.loadMask[p]; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			s := r.slot(p, v)
			vc := &r.vcs[s]
			if vc.flags&gatherLoad != 0 {
				if op, ok := r.cold.station.Held(s); ok {
					f := r.head(s)
					if f != nil && f.PT == flit.Gather && !f.Type.IsHead() &&
						f.AddPayload(op) {
						r.cold.station.Complete(s)
						r.Counters.GatherUploads.Inc()
						if r.probe != nil && r.probe.Sampled(f.PacketID) {
							r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvGatherUpload,
								Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(f.Payloads[len(f.Payloads)-1].Src)})
						}
						vc.flags &^= gatherLoad
						r.dropLoad(p, v)
					}
				}
			}
			if vc.flags&reduceLoad != 0 {
				if op, ok := r.cold.rstation.Held(s); ok {
					f := r.head(s)
					if f != nil && f.PT == flit.Accumulate && !f.Type.IsHead() &&
						f.MergePayload(op) {
						r.cold.rstation.Complete(s)
						r.Counters.ReduceMerges.Inc()
						if r.probe != nil && r.probe.Sampled(f.PacketID) {
							// A merge event names no source: the trace has
							// always recorded Aux 0 here (the operand was
							// read after the station had recycled it), and
							// traces stay byte-identical.
							r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvReduceMerge,
								Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id)})
						}
						vc.flags &^= reduceLoad
						r.dropLoad(p, v)
					}
				}
			}
		}
	}
}

// raiseLoad counts a Load signal raised on VC v of input port p.
func (r *Router) raiseLoad(p, v int) {
	r.loads++
	r.loadMask[p] |= 1 << v
}

// dropLoad counts a Load signal of VC v of input port p lowered; the VC
// leaves loadMask once neither of its two signals is raised.
func (r *Router) dropLoad(p, v int) {
	r.loads--
	if r.vcs[r.slot(p, v)].flags&(gatherLoad|reduceLoad) == 0 {
		r.loadMask[p] &^= 1 << v
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
			s := r.slot(p, v)
			vc := &r.vcs[s]
			switch vc.stage {
			case vcIdle:
				if !r.head(s).IsHead() {
					continue
				}
				vc.stage = vcRC
				vc.wait = uint8(r.cfg.RCDelay - 1)
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
	s := r.slot(p, v)
	vc := &r.vcs[s]
	f := r.head(s)
	rt := r.route(r.id, f)
	vc.class = uint8(rt.VCClass)
	r.clearBranches(s)
	if len(rt.Adaptive) > 0 {
		vc.br[0] = branchState{out: r.pickAdaptive(rt.Adaptive), vc: -1}
		vc.nbr = 1
	} else {
		if len(rt.Branches) > topology.NumPorts {
			panic(fmt.Sprintf("router %d: route of %d branches for %s", r.id, len(rt.Branches), f))
		}
		var sets *vcSets
		for i, br := range rt.Branches {
			vc.br[i] = branchState{out: br.Out, vc: -1}
			if br.Dsts != nil {
				if sets == nil {
					sets = r.takeSets(s)
					vc.flags |= withSets
				}
				sets.dsts[i] = br.Dsts
			}
		}
		vc.nbr = uint8(len(rt.Branches))
		if f.PT == flit.Multicast {
			vc.flags |= multicastHead
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
		if r.cold.station.ReserveByDst(f.Dst, s) {
			f.ASpace--
			vc.flags |= gatherLoad
			r.raiseLoad(p, v)
			r.Counters.GatherReserves.Inc()
		}
	}

	// Accumulation load: reserve the local operand against a passing
	// accumulate header with merge budget left, decrementing ASpace —
	// the INA twin of the Gather Load Generator, with the reservation
	// additionally matched on the packet's reduction ID.
	if f.PT == flit.Accumulate && f.IsHead() && f.ASpace >= 1 {
		if r.cold.rstation.Reserve(f.Dst, f.ReduceID, s) {
			f.ASpace--
			vc.flags |= reduceLoad
			r.raiseLoad(p, v)
			r.Counters.ReduceReserves.Inc()
		}
	}

	vc.stage = vcVA
	vc.wait = uint8(r.cfg.VADelay - 1)
	r.vaPending++
	r.vaMask[p] |= 1 << v
}

// takeSets returns a cleared destination-set record for input VC slot s:
// a free one of the cold record's, or a new one.
func (r *Router) takeSets(s int) *vcSets {
	c := r.cold
	for i := range c.sets {
		if c.sets[i].slot < 0 {
			c.sets[i].slot = s
			return &c.sets[i]
		}
	}
	c.sets = append(c.sets, vcSets{slot: s})
	return &c.sets[len(c.sets)-1]
}

// setsOf returns the destination-set record of input VC slot s, nil when
// its packet's branches carry none.
func (r *Router) setsOf(s int) *vcSets {
	if r.vcs[s].flags&withSets == 0 {
		return nil
	}
	c := r.cold
	for i := range c.sets {
		if c.sets[i].slot == s {
			return &c.sets[i]
		}
	}
	return nil
}

// dsts returns the destination set of branch i of input VC slot s.
func (r *Router) dsts(s, i int) *topology.DestSet {
	if sets := r.setsOf(s); sets != nil {
		return sets.dsts[i]
	}
	return nil
}

// headMD returns the MDst the head copy on branch i of input VC slot s
// carries: the branch's destination set on a multicast packet, else nil.
func (r *Router) headMD(s, i int) *topology.DestSet {
	if r.vcs[s].flags&multicastHead == 0 {
		return nil
	}
	return r.dsts(s, i)
}

// clearBranches drops the branches of input VC slot s and gives its
// destination-set record back.
func (r *Router) clearBranches(s int) {
	vc := &r.vcs[s]
	if sets := r.setsOf(s); sets != nil {
		*sets = vcSets{slot: -1}
	}
	vc.nbr = 0
	vc.flags &^= withSets | multicastHead
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
	nv := r.cfg.VCs
	for ; m != 0; m &= m - 1 {
		cv := bits.TrailingZeros64(m)
		s := r.slot(cp, cv)
		vc := &r.vcs[s]
		if vc.wait > 0 {
			vc.wait--
			continue
		}
		f := r.head(s)
		if f == nil {
			continue
		}
		done := true
		for i := range vc.branches() {
			br := &vc.br[i]
			if br.vc >= 0 {
				continue
			}
			if !r.connected(br.out) {
				panic(fmt.Sprintf("router %d: route to unconnected port %s for %s", r.id, br.out, f))
			}
			alloc := -1
			for dv := 0; dv < nv; dv++ {
				if !r.vcAllowed(f.PT, dv, nv, int(vc.class), br.out != topology.LocalPort) {
					continue
				}
				if r.outVC(br.out, dv).free() {
					alloc = dv
					break
				}
			}
			if alloc < 0 {
				done = false
				continue
			}
			o := r.outVC(br.out, alloc)
			o.ownerPort, o.ownerVC = int8(cp), int8(cv)
			br.vc = int8(alloc)
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
		if !r.connected(p) {
			continue
		}
		total := 0
		for dv := 0; dv < r.cfg.VCs; dv++ {
			total += int(r.outVC(p, dv).credits)
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
		arb := &r.saInputArb[p]
		n, next := int(arb.n), int(arb.next)
		for rot := (m>>next | m<<(n-next)) & (1<<n - 1); rot != 0; rot &= rot - 1 {
			idx := bits.TrailingZeros64(rot) + next
			if idx >= n {
				idx -= n
			}
			if req := r.requestedOutputs(&r.vcs[r.slot(p, idx)]); req != 0 {
				arb.next = uint8(idx + 1)
				if int(arb.next) == n {
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
		arb := &r.saOutputArb[out]
		n, idx := int(arb.n), int(arb.next)
		for off := 0; off < n; off++ {
			if idx >= n {
				idx -= n
			}
			if requests[idx]&(1<<out) != 0 {
				v := candidate[idx]
				arb.next = uint8(idx + 1)
				if int(arb.next) == n {
					arb.next = 0
				}
				grants[nGrants] = grant{inPort: idx, inVC: v, branch: branchRequesting(&r.vcs[r.slot(idx, v)], topology.Port(out))}
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
		s := r.slot(g.inPort, g.inVC)
		vc := &r.vcs[s]
		f := r.head(s)
		br := &vc.br[g.branch]
		o := r.outVC(br.out, int(br.vc))

		copyF := r.flitForBranch(f, s, g.branch, vc.nbr > 1)
		r.outLinks[br.out].Send(copyF, int(br.vc), cycle)
		if o.credits == 0 {
			panic(fmt.Sprintf("router %d: negative credit on %s vc%d", r.id, br.out, br.vc))
		}
		o.credits--
		br.sent = true
		r.Counters.Crossings.Inc()
		if r.probe != nil && f.IsHead() && r.probe.Sampled(f.PacketID) {
			r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvSA,
				Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(br.out)})
		}

		if f.IsTail() || f.Type == flit.HeadTail {
			// Free the downstream VC at this branch once its copy of the
			// tail has departed.
			o.ownerPort, o.ownerVC = -1, -1
		}
		touched[g.inPort] = g.inVC
	}

	for p, v := range touched {
		if v < 0 {
			continue
		}
		s := r.slot(p, v)
		vc := &r.vcs[s]
		if !allBranchesSent(vc) {
			continue
		}
		f := ring.PopFront(&vc.buf, r.slotsOf(s))
		r.buffered--
		if vc.buf.Empty() {
			r.occMask[p] &^= 1 << v
		}
		forked := vc.nbr > 1
		r.Counters.BufferReads.Inc()
		if r.inLinks[p] != nil {
			r.inLinks[p].ReturnCredit(v, cycle)
		}
		for i := range vc.branches() {
			vc.br[i].sent = false
		}
		if f.IsTail() {
			if vc.flags&gatherLoad != 0 {
				// The packet left before the upload could complete;
				// return the payload so the δ-timeout can recover it.
				r.cold.station.Release(s)
				vc.flags &^= gatherLoad
				r.dropLoad(p, v)
			}
			if vc.flags&reduceLoad != 0 {
				r.cold.rstation.Release(s)
				vc.flags &^= reduceLoad
				r.dropLoad(p, v)
			}
			r.clearBranches(s)
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
	for i := range vc.branches() {
		br := &vc.br[i]
		if !br.sent && r.outVC(br.out, int(br.vc)).credits > 0 {
			req |= 1 << br.out
		}
	}
	return req
}

// branchRequesting returns the index of the unserved branch of vc aimed at
// out, or -1. A VC has at most one branch per output (CheckInvariants), so
// for an out in requestedOutputs' mask it is the credited one.
func branchRequesting(vc *inputVC, out topology.Port) int {
	for i, br := range vc.branches() {
		if br.out == out && !br.sent {
			return i
		}
	}
	return -1
}

// allBranchesSent reports whether the head flit has been copied to every
// branch.
func allBranchesSent(vc *inputVC) bool {
	if vc.nbr == 0 {
		return false
	}
	for _, br := range vc.branches() {
		if !br.sent {
			return false
		}
	}
	return true
}

// flitForBranch returns the flit instance to send on branch i of input VC
// slot s: the original for single-branch packets, a copy (with the
// branch's MDst subset on head flits) when the packet forks.
func (r *Router) flitForBranch(f *flit.Flit, s, i int, fork bool) *flit.Flit {
	if !fork {
		if f.IsHead() && f.PT == flit.Multicast {
			if md := r.headMD(s, i); md != nil {
				f.MDst = md
			}
		}
		return f
	}
	c := r.pool.Acquire()
	payloads := append(c.Payloads[:0], f.Payloads...)
	*c = *f
	c.Payloads = payloads
	if c.IsHead() && c.PT == flit.Multicast {
		c.MDst = r.headMD(s, i)
	}
	return c
}
