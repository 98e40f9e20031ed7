// Package nic implements the network interface sitting between a
// processing element and its router: packetization and injection with
// per-VC wormhole discipline and credit tracking, ejection with packet
// reassembly, and the PE side of the gather protocol — offering the
// partial-sum payload to the router's Gather Payload station and falling
// back to a self-initiated gather packet when the δ-cycle timeout of
// Algorithm 1 expires without an ack. The in-network accumulation (INA)
// protocol mirrors it operand for payload: SubmitReduceOperand offers the
// partial sum to the router's accumulation station and SendAccumulate is
// both the row-initiator path and the reduce-δ fallback.
//
// The NIC is topology-agnostic: destinations are opaque NodeIDs, routing
// and fabric shape live behind the network layer's topology.Routing, and
// who initiates a line's collective packet, who offers its payload and with
// which δ is decided once, by noc.Network.Submit over the network's
// LineCollect plan, not here (DESIGN.md §7). It is owner-agnostic too: any
// number of workload drivers share one NIC, so the job and phase a packet
// belongs to (flit.Tag) is an argument of every send and submit, never
// state of the interface (DESIGN.md §8).
package nic

import (
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/reduce"
	"gathernoc/internal/ring"
	"gathernoc/internal/router"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// Config holds the per-NIC parameters.
type Config struct {
	// VCs mirrors the router VC count on the injection channel.
	VCs int
	// RouterBufferDepth is the router input buffer depth (credit init).
	RouterBufferDepth int
	// EjectDepth is the ejection buffer depth per VC.
	EjectDepth int
	// EjectRate is the maximum flits drained per cycle at ejection.
	EjectRate int
	// Delta is the δ timeout in cycles before a PE whose payload was not
	// picked up initiates its own gather packet (Table I: 5).
	Delta int64
	// UnicastFlits is the unicast packet length (Table I: 2).
	UnicastFlits int
	// GatherCapacity is η, the payload capacity of a gather packet.
	GatherCapacity int
	// EnableINA permits accumulate traffic on this NIC; with it off,
	// SendAccumulate and SubmitReduceOperand are programming errors, so
	// no accumulate packet can enter the fabric.
	EnableINA bool
	// ReduceCapacity is the merge budget of an accumulate packet (INA):
	// how many operands one packet may absorb, its own included. The
	// network layer owns the default (noc.Config.EffectiveReduceCapacity
	// resolves 0 to the row width); here it must be >= 1 when EnableINA
	// is set.
	ReduceCapacity int
	// ReduceDelta is the δ timeout for reduce operands awaiting a merge;
	// 0 falls back to Delta.
	ReduceDelta int64
	// GatherVC, when >= 0, restricts gather and accumulate packets to
	// that VC at injection and keeps other packets off it.
	GatherVC int
	// Format supplies the wire-format arithmetic.
	Format *flit.Format
}

// maxVCs and maxDepth bound what a NIC holds in a byte, as its router
// does: its VC count and round-robin pointers (the router's mask width),
// its injection credits and ejection buffer occupancy (DESIGN.md §9).
const (
	maxVCs   = 64
	maxDepth = ring.MaxFixed
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VCs < 1:
		return fmt.Errorf("nic: VCs must be >= 1, got %d", c.VCs)
	case c.VCs > maxVCs:
		return fmt.Errorf("nic: %w: VCs must be <= %d, got %d", router.ErrTooManyVCs, maxVCs, c.VCs)
	case c.RouterBufferDepth < 1:
		return fmt.Errorf("nic: RouterBufferDepth must be >= 1, got %d", c.RouterBufferDepth)
	case c.RouterBufferDepth > maxDepth:
		return fmt.Errorf("nic: %w: RouterBufferDepth must be <= %d, got %d", router.ErrOutOfRange, maxDepth, c.RouterBufferDepth)
	case c.EjectDepth < 1:
		return fmt.Errorf("nic: EjectDepth must be >= 1, got %d", c.EjectDepth)
	case c.EjectDepth > maxDepth:
		return fmt.Errorf("nic: %w: EjectDepth must be <= %d, got %d", router.ErrOutOfRange, maxDepth, c.EjectDepth)
	case c.UnicastFlits < 1:
		return fmt.Errorf("nic: UnicastFlits must be >= 1, got %d", c.UnicastFlits)
	case c.GatherCapacity < 1:
		return fmt.Errorf("nic: GatherCapacity must be >= 1, got %d", c.GatherCapacity)
	case c.ReduceCapacity < 0:
		return fmt.Errorf("nic: ReduceCapacity must be >= 0, got %d", c.ReduceCapacity)
	case c.EnableINA && c.ReduceCapacity < 1:
		return fmt.Errorf("nic: EnableINA needs ReduceCapacity >= 1, got %d", c.ReduceCapacity)
	case c.Delta < 0:
		return fmt.Errorf("nic: Delta must be >= 0, got %d", c.Delta)
	case c.ReduceDelta < 0:
		return fmt.Errorf("nic: ReduceDelta must be >= 0, got %d", c.ReduceDelta)
	case c.Format == nil:
		return fmt.Errorf("nic: Format is required")
	case c.GatherVC >= c.VCs:
		return fmt.Errorf("nic: GatherVC %d out of range (VCs=%d)", c.GatherVC, c.VCs)
	}
	return nil
}

// gatherWait tracks one payload or operand awaiting pickup by a passing
// collective packet (gather upload or INA merge), with its δ deadline.
// Waits are stored by value and compacted in place, so the wait lists
// allocate nothing in steady state; acks find their wait by payload
// sequence number.
type gatherWait struct {
	payload  flit.Payload
	deadline int64
	acked    bool
	// tag is the workload tag the payload was submitted under; the
	// δ-timeout fallback packet carries it.
	tag flit.Tag
}

// vcStream is the flit sequence of the packet currently streaming on one
// injection VC. The backing array is reused across packets (PacketizeInto
// appends into flits[:0]), and next advances instead of re-slicing so the
// array never leaks.
type vcStream struct {
	flits []*flit.Flit
	next  int
}

func (s *vcStream) empty() bool { return s.next >= len(s.flits) }

// NIC is the PE-side network interface. Register it with the engine as a
// Ticker after its router (ordering among tickers is irrelevant for
// correctness; links decouple them).
type NIC struct {
	id     topology.NodeID
	cfg    *Config // the slab's
	rtr    *router.Router
	out    *link.Link
	eject  Ejector
	nextID func(topology.NodeID) uint64

	// delta and reduceDelta are this NIC's δ timeouts, Config.Delta and
	// the effective reduce δ until SetDelta or SetReduceDelta overrides
	// them.
	delta, reduceDelta int64

	credits []uint8
	// vcPkt holds the remaining flits of the packet currently streaming on
	// each injection VC.
	vcPkt []vcStream
	// queue holds packets awaiting a free injection VC. A chunked deque
	// rather than an append/filter slice: open-loop workloads run the
	// queue deep past saturation, and the deque's recycled fixed-size
	// blocks never copy on growth and never abandon a backing array.
	queue    ring.Deque[flit.Packet]
	waiting  []gatherWait
	rwaiting []gatherWait // reduce operands awaiting an INA merge
	// sweepAt is the earliest cycle the timeout sweeps have work in: the
	// earliest δ or retransmission deadline, or the cycle of an ack whose
	// wait is still listed. Before it Tick leaves the wait lists and the
	// reliability table alone. It is derived from them (a restored NIC
	// starts at 0 and the first sweep brings it up to date).
	sweepAt int64
	sendRR  uint8
	// streaming counts injection VCs with flits left to send, so Idle and
	// Pending answer without scanning vcPkt.
	streaming int32
	pool      *flit.Pool // flit allocation for outgoing packets

	// now tracks the last observed tick; clock, when set, supersedes it so
	// that work submitted from outside Tick (controllers enqueueing packets
	// or offering gather payloads) is timestamped correctly even when
	// sleep/wake scheduling skipped this NIC's recent ticks.
	now   int64
	clock sim.Clock
	wake  *sim.Handle

	// reliable, when enabled, tracks every payload this NIC sends until an
	// ejector confirms delivery, retransmitting on timeout (reliable.go).
	// probe records retransmission events in the lifecycle trace.
	reliable *reliableTable
	probe    *telemetry.Probe

	// PacketsInjected / FlitsInjected count injection activity;
	// SelfInitiatedGathers counts δ-timeout fallbacks; PiggybackAcks
	// counts payloads picked up by passing gather packets. The INA twins:
	// SelfInitiatedReduces counts reduce-δ fallback accumulate packets,
	// MergeAcks operands folded into passing accumulate packets.
	PacketsInjected      stats.Counter
	FlitsInjected        stats.Counter
	SelfInitiatedGathers stats.Counter
	PiggybackAcks        stats.Counter
	SelfInitiatedReduces stats.Counter
	MergeAcks            stats.Counter
	// Retransmits counts timeout-driven resends of unconfirmed payloads;
	// AbandonedPayloads counts payloads given up on after MaxRetries (only
	// unreachable destinations abandon — see sweepReliable).
	Retransmits       stats.Counter
	AbandonedPayloads stats.Counter
}

// Slab is the memory of a block of NICs of one Config, allocated at once so
// that a NIC allocates nothing after construction: the NICs with their
// ejectors, each injection VC's credit counter and room for a unicast
// packet's flits, and the ejectors' buffers (ejectorSlab). A fabric builds
// one per shard.
type Slab struct {
	cfg     *Config
	nics    []NIC
	credits []uint8
	streams []vcStream
	flits   []*flit.Flit
	eject   ejectorSlab
}

// NewSlab returns a slab for n NICs of configuration cfg.
func NewSlab(cfg Config, n int) (*Slab, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Slab{
		cfg:     &cfg,
		nics:    make([]NIC, n),
		credits: make([]uint8, n*cfg.VCs),
		streams: make([]vcStream, n*cfg.VCs),
		flits:   make([]*flit.Flit, n*cfg.VCs*cfg.UnicastFlits),
		eject:   newEjectorSlab(n, cfg.VCs, cfg.EjectDepth, cfg.EjectRate),
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

// New constructs a NIC for node id attached to rtr out of the slab, and
// makes it the owner of rtr's stations: uploads and merges are acked to it
// (Acked). nextID(id) must return network-unique packet ids; every NIC of
// a fabric shares it. Beyond the n NICs the slab was made for, it
// allocates each one's memory anew.
func (s *Slab) New(id topology.NodeID, rtr *router.Router, nextID func(topology.NodeID) uint64) (*NIC, error) {
	if nextID == nil {
		return nil, fmt.Errorf("nic %d: nil id allocator", id)
	}
	cfg := s.cfg
	n := &carve(&s.nics, 1)[0]
	n.id, n.cfg, n.rtr, n.nextID = id, cfg, rtr, nextID
	n.delta, n.reduceDelta = cfg.Delta, cfg.ReduceDelta
	n.credits = carve(&s.credits, cfg.VCs)
	n.vcPkt = carve(&s.streams, cfg.VCs)
	flits := carve(&s.flits, cfg.VCs*cfg.UnicastFlits)
	for v := range n.credits {
		n.credits[v] = uint8(cfg.RouterBufferDepth)
		// bindTo packetizes into the stream's array; a packet longer than a
		// unicast one takes an array of its own.
		n.vcPkt[v].flits = flits[v*cfg.UnicastFlits : v*cfg.UnicastFlits : (v+1)*cfg.UnicastFlits]
	}
	s.eject.init(&n.eject, link.Numbered("nic", int(id)), cfg.VCs, cfg.EjectDepth, cfg.EjectRate)
	n.eject.SetOwner(id)
	if rtr != nil {
		rtr.SetStationOwner(n)
	}
	return n, nil
}

// ID returns the node this NIC serves.
func (n *NIC) ID() topology.NodeID { return n.id }

// Ejector returns the receive side, for wiring to the router's local
// output link.
func (n *NIC) Ejector() *Ejector { return &n.eject }

// QueueDepth reports packets waiting in the injection queue; the telemetry
// epoch collector samples it as a gauge.
func (n *NIC) QueueDepth() int { return n.queue.Len() }

// ConnectInjection sets the NIC-to-router link.
func (n *NIC) ConnectInjection(l *link.Link) { n.out = l }

// SetFlitPool attaches the network's flit pool; outgoing packets acquire
// their flits from it (and the pool's owner releases them at ejection). A
// nil pool (standalone tests) heap-allocates.
func (n *NIC) SetFlitPool(p *flit.Pool) { n.pool = p }

// SetClock attaches the engine clock used to timestamp externally
// submitted work; without one the NIC falls back to the cycle of its last
// tick (fine when it is ticked every cycle, as in standalone unit tests).
func (n *NIC) SetClock(c sim.Clock) { n.clock = c }

// SetWake attaches the engine wake handle; enqueues and gather-payload
// submissions arm it so a sleeping NIC is re-evaluated (credit arrivals do
// not: see Idle).
func (n *NIC) SetWake(h *sim.Handle) { n.wake = h }

// currentCycle returns the cycle to timestamp externally triggered work
// with: the engine clock when attached, else the last observed tick.
func (n *NIC) currentCycle() int64 {
	if n.clock != nil {
		return n.clock.Cycle()
	}
	return n.now
}

// Idle implements sim.Idler: with no queued packets, no streaming flits, no
// flit the ejector could drain and no timeout due in the next cycle, the
// NIC's tick is a pure no-op until the earliest deadline it holds (a δ wait,
// an unconfirmed payload's retransmission, the end of an ejector stall),
// which Idle arms the timer for. The engine may skip it until then or
// until new work arrives (wakes come from enqueues, payload submissions,
// acks, delivery confirmations and ejection deliveries). A credit return
// is not new work: with nothing queued or streaming there is no flit it
// could let out, and the enqueue that brings one wakes the NIC. A NIC
// blocked on a credit has a packet queued or streaming and so never
// sleeps; were Idle ever to admit one, AcceptCredit would have to wake it.
func (n *NIC) Idle() bool {
	return n.streaming == 0 && n.queue.Len() == 0 &&
		n.wake.IdleUntil(n.now, min(n.sweepAt, n.eject.NextDrain(n.now)))
}

// sweepBy makes sure the timeout sweeps run in the first tick at or after
// cycle.
func (n *NIC) sweepBy(cycle int64) {
	if cycle < n.sweepAt {
		n.sweepAt = cycle
	}
}

// AcceptCredit implements link.CreditSink for the injection channel. It
// wakes nothing: see Idle.
func (n *NIC) AcceptCredit(vc int) {
	n.credits[vc]++
}

// Credits returns the credits the NIC holds for the router's local input
// VC vc, its end of the credit loop link.Link.CheckInvariants balances.
func (n *NIC) Credits(vc int) int { return int(n.credits[vc]) }

// OnReceive registers the completed-packet callback.
func (n *NIC) OnReceive(fn func(*ReceivedPacket)) { n.eject.OnReceive(fn) }

// SetDelta overrides this NIC's δ timeout. The paper notes δ "can be
// configured for each router" to cover "the router pipeline delay to reach
// the neighboring node"; noc.Network.Submit arms it before every offer,
// scaled with the node's distance from its line's gather initiator so that a
// packet in flight is not preempted by spurious self-initiations.
func (n *NIC) SetDelta(d int64) {
	if d >= 0 {
		n.delta = d
	}
}

// Every send and submit below takes the workload tag of the job and phase
// the packet belongs to. It goes into the packet, and into the δ wait and
// the reliability entry a submit creates, so a fallback or retransmission
// the NIC sends later carries it too. The zero tag marks untagged traffic.

// SendUnicastN queues a unicast packet of nFlits flits to dst and returns
// its packet id.
func (n *NIC) SendUnicastN(tag flit.Tag, dst topology.NodeID, nFlits int) uint64 {
	return n.enqueue(flit.Packet{Tag: tag, PT: flit.Unicast, Src: n.id, Dst: dst, Flits: nFlits})
}

// SendUnicastPayload queues a unicast packet carrying one result payload —
// the repetitive-unicast transport for a PE's partial sum.
func (n *NIC) SendUnicastPayload(tag flit.Tag, dst topology.NodeID, p flit.Payload) uint64 {
	return n.enqueue(flit.Packet{
		Tag: tag, PT: flit.Unicast, Src: n.id, Dst: dst, Flits: n.cfg.UnicastFlits, Carried: &p,
	})
}

// SendMulticast queues a multicast packet of nFlits flits to the
// destination set.
func (n *NIC) SendMulticast(tag flit.Tag, dsts *topology.DestSet, nFlits int) uint64 {
	return n.enqueue(flit.Packet{
		Tag: tag, PT: flit.Multicast, Src: n.id, MDst: dsts.Clone(), Flits: nFlits,
	})
}

// SendMulticastPayload queues a multicast packet of nFlits flits carrying
// one payload to every destination — the broadcast leg of a collective
// tree. The XY multicast tree copies the payload on every fork
// (router.flitForBranch clones flit payload slices), so each destination's
// ejector reassembles a packet delivering the same value.
func (n *NIC) SendMulticastPayload(tag flit.Tag, dsts *topology.DestSet, nFlits int, p flit.Payload) uint64 {
	return n.enqueue(flit.Packet{
		Tag: tag, PT: flit.Multicast, Src: n.id, MDst: dsts.Clone(), Flits: nFlits, Carried: &p,
	})
}

// SendGather queues a gather packet to dst with the configured capacity,
// optionally pre-loaded with the sender's own payload. This is the
// initiator path: in the paper's row-based scheme the leftmost PE of each
// row launches the packet toward the global buffer.
func (n *NIC) SendGather(tag flit.Tag, dst topology.NodeID, own *flit.Payload) uint64 {
	capacity := n.cfg.GatherCapacity
	return n.enqueue(flit.Packet{
		Tag: tag, PT: flit.Gather, Src: n.id, Dst: dst,
		Flits:          n.cfg.Format.GatherFlits(capacity),
		GatherCapacity: capacity,
		Carried:        own,
	})
}

// SubmitGatherPayload is the piggyback path of Algorithm 1: the payload is
// offered to the router's Gather Payload station; if no passing gather
// packet picks it up within δ cycles the NIC retracts it and initiates its
// own gather packet to the payload's destination.
func (n *NIC) SubmitGatherPayload(tag flit.Tag, p flit.Payload) {
	if n.reliable != nil {
		n.track(p, tag)
	}
	ok := n.rtr.OfferGatherPayload(p)
	if !ok {
		// Station full: fall back immediately.
		n.selfInitiate(p, tag)
		return
	}
	deadline := n.currentCycle() + n.delta
	n.waiting = append(n.waiting, gatherWait{payload: p, deadline: deadline, tag: tag})
	n.sweepBy(deadline)
	n.wake.Wake()
}

// Acked implements reduce.Owner: it marks the waiting payload picked up by
// a passing gather packet, or the waiting operand merged into a passing
// accumulate packet. Payload sequence numbers are run-unique, so the
// lookup is exact. The NIC's next tick (this cycle's: routers tick first)
// drops the wait.
func (n *NIC) Acked(k reduce.Kind, p flit.Payload) {
	if k == reduce.GatherStation {
		markAcked(n.waiting, p.Seq)
		n.PiggybackAcks.Inc()
	} else {
		markAcked(n.rwaiting, p.Seq)
		n.MergeAcks.Inc()
	}
	n.sweepBy(n.currentCycle())
	n.wake.Wake()
}

func markAcked(waiting []gatherWait, seq uint64) {
	for i := range waiting {
		if waiting[i].payload.Seq == seq {
			waiting[i].acked = true
			return
		}
	}
}

// requireINA guards the accumulate entry points: calling them on a NIC
// whose network has INA disabled is a programming error, like mis-sized
// packets.
func (n *NIC) requireINA(op string) {
	if !n.cfg.EnableINA {
		panic(fmt.Sprintf("nic %d: %s without Config.EnableINA", n.id, op))
	}
}

// reduceDelta returns the δ applied to reduce operands (ReduceDelta,
// falling back to the gather Delta).
func (n *NIC) effectiveReduceDelta() int64 {
	if n.reduceDelta > 0 {
		return n.reduceDelta
	}
	return n.delta
}

// SetReduceDelta overrides this NIC's reduce-operand δ timeout, the INA
// twin of SetDelta.
func (n *NIC) SetReduceDelta(d int64) {
	if d >= 0 {
		n.reduceDelta = d
	}
}

// SendAccumulate queues an accumulate packet to dst seeded with the
// sender's own operand — the INA initiator path: in the row-based scheme
// the leftmost PE of each row launches the packet toward the global
// buffer, and every router en route folds its local partial sum in.
func (n *NIC) SendAccumulate(tag flit.Tag, dst topology.NodeID, reduceID uint64, own flit.Payload) uint64 {
	n.requireINA("SendAccumulate")
	return n.enqueue(flit.Packet{
		Tag: tag, PT: flit.Accumulate, Src: n.id, Dst: dst,
		Flits:          flit.AccumulateFlits,
		GatherCapacity: n.cfg.ReduceCapacity,
		ReduceID:       reduceID,
		Carried:        &own,
		// With end-to-end reliability on, merged operands stay separate
		// payload entries so the ejector can suppress duplicates per
		// operand (flit.MergePayload).
		TrackOperands: n.reliable != nil,
	})
}

// SubmitReduceOperand is the INA merge path: the operand is offered to the
// router's accumulation station; if no passing accumulate packet folds it
// in within the reduce δ the NIC retracts it and initiates its own
// accumulate packet carrying the operand.
func (n *NIC) SubmitReduceOperand(tag flit.Tag, p flit.Payload) {
	n.requireINA("SubmitReduceOperand")
	p.Ops = p.OpsCount()
	if n.reliable != nil {
		n.track(p, tag)
	}
	ok := n.rtr.OfferReduceOperand(p)
	if !ok {
		n.selfInitiateReduce(p, tag)
		return
	}
	deadline := n.currentCycle() + n.effectiveReduceDelta()
	n.rwaiting = append(n.rwaiting, gatherWait{payload: p, deadline: deadline, tag: tag})
	n.sweepBy(deadline)
	n.wake.Wake()
}

// Pending reports whether the NIC still has packets queued, flits
// streaming, or payloads awaiting pickup.
func (n *NIC) Pending() bool {
	return n.streaming > 0 || n.queue.Len() > 0 ||
		len(n.waiting) > 0 || len(n.rwaiting) > 0 ||
		n.eject.Buffered() > 0 || n.eject.PendingPackets() > 0 ||
		(n.reliable != nil && len(n.reliable.entries) > 0)
}

// Tick advances the NIC: ejection, the timeouts that have come due (δ
// fallbacks, retransmissions), packet-to-VC binding, and one flit of
// injection bandwidth. A NIC left with nothing but deadlines to wait for
// sleeps until the earliest (Idle).
func (n *NIC) Tick(cycle int64) {
	n.now = cycle
	n.eject.Tick(cycle)
	if cycle >= n.sweepAt {
		n.sweepAt = sim.Never
		n.waiting = n.sweepTimeouts(n.waiting, n.rtr.RetractGatherPayload, n.selfInitiate)
		n.rwaiting = n.sweepTimeouts(n.rwaiting, n.rtr.RetractReduceOperand, n.selfInitiateReduce)
		n.sweepReliable()
	}
	n.bindPackets()
	n.injectOne(cycle)
}

// sweepTimeouts drops acked waiters and fires the δ fallback for expired
// ones. Retract succeeds only while the payload is still pending at the
// station; if a packet reserved it, the ack is imminent and we keep
// waiting (retry next cycle if the reservation is released). The fallback
// packet is enqueued under the tag the payload was submitted with. Every
// wait that stays listed books its deadline with sweepBy.
func (n *NIC) sweepTimeouts(waiting []gatherWait, retract func(uint64) bool, fallback func(flit.Payload, flit.Tag)) []gatherWait {
	if len(waiting) == 0 {
		return waiting
	}
	keep := waiting[:0]
	for i := range waiting {
		w := waiting[i]
		if w.acked {
			continue
		}
		if n.now >= w.deadline && retract(w.payload.Seq) {
			fallback(w.payload, w.tag)
			continue
		}
		n.sweepBy(w.deadline)
		keep = append(keep, w)
	}
	return keep
}

func (n *NIC) selfInitiate(p flit.Payload, tag flit.Tag) {
	own := p
	n.SendGather(tag, p.Dst, &own)
	n.SelfInitiatedGathers.Inc()
}

func (n *NIC) selfInitiateReduce(p flit.Payload, tag flit.Tag) {
	n.SendAccumulate(tag, p.Dst, p.ReduceID, p)
	n.SelfInitiatedReduces.Inc()
}

func (n *NIC) enqueue(p flit.Packet) uint64 {
	p.ID = n.nextID(n.id)
	p.InjectCycle = n.currentCycle()
	if n.reliable != nil && p.Carried != nil {
		n.track(*p.Carried, p.Tag)
	}
	n.queue.PushBack(p)
	n.PacketsInjected.Inc()
	n.wake.Wake()
	return p.ID
}

// bindPackets assigns queued packets to free injection VCs (one packet per
// VC at a time: the NIC is the upstream end of a wormhole channel).
//
// Without a dedicated collective VC every packet may use every VC, so
// binding is strictly FIFO: the front packet binds or nothing behind it
// can either, and the pass costs O(bound packets) however long the
// saturated queue grows. With GatherVC set there are two traffic classes
// and a packet behind a blocked head may still bind to its class's VC, so
// the whole queue is considered once, non-binding packets cycling back in
// their original relative order.
func (n *NIC) bindPackets() {
	if n.cfg.GatherVC < 0 {
		for n.queue.Len() > 0 {
			vc := n.freeVCFor(n.queue.FrontPtr().PT)
			if vc < 0 {
				return
			}
			n.bindTo(vc, n.queue.PopFront())
		}
		return
	}
	for i, m := 0, n.queue.Len(); i < m; i++ {
		p := n.queue.PopFront()
		vc := n.freeVCFor(p.PT)
		if vc < 0 {
			n.queue.PushBack(p)
			continue
		}
		n.bindTo(vc, p)
	}
}

func (n *NIC) bindTo(vc int, p flit.Packet) {
	s := &n.vcPkt[vc]
	flits, err := flit.PacketizeInto(s.flits[:0], p, n.cfg.Format, n.pool)
	if err != nil {
		// Mis-sized packets are a programming error in the caller.
		panic(fmt.Sprintf("nic %d: %v", n.id, err))
	}
	s.flits = flits
	s.next = 0
	if !s.empty() {
		n.streaming++
	}
}

func (n *NIC) freeVCFor(pt flit.PacketType) int {
	for v := 0; v < n.cfg.VCs; v++ {
		if !n.vcPkt[v].empty() {
			continue
		}
		if !n.vcAllowed(pt, v) {
			continue
		}
		return v
	}
	return -1
}

func (n *NIC) vcAllowed(pt flit.PacketType, vc int) bool {
	g := n.cfg.GatherVC
	if g < 0 {
		return true
	}
	if pt == flit.Gather || pt == flit.Accumulate {
		return vc == g
	}
	return vc != g
}

// injectOne sends at most one flit this cycle (the injection channel is a
// single physical link), round-robin across VCs with credit.
func (n *NIC) injectOne(cycle int64) {
	if n.out == nil {
		return
	}
	for off := 0; off < n.cfg.VCs; off++ {
		vc := (int(n.sendRR) + off) % n.cfg.VCs
		s := &n.vcPkt[vc]
		if s.empty() || n.credits[vc] == 0 {
			continue
		}
		f := s.flits[s.next]
		s.flits[s.next] = nil // do not pin the flit once it leaves
		s.next++
		if s.empty() {
			n.streaming--
		}
		f.NetworkCycle = cycle
		n.out.Send(f, vc, cycle)
		n.credits[vc]--
		n.FlitsInjected.Inc()
		n.sendRR = uint8((vc + 1) % n.cfg.VCs)
		return
	}
}
