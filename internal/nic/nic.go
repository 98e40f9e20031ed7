// Package nic implements the network interface sitting between a
// processing element and its router: packetization and injection with
// per-VC wormhole discipline and credit tracking, ejection with packet
// reassembly, and the PE side of the gather protocol — offering the
// partial-sum payload to the router's Gather Payload station and falling
// back to a self-initiated gather packet when the δ-cycle timeout of
// Algorithm 1 expires without an ack. The in-network accumulation (INA)
// protocol runs the same path with another station kind: SubmitPayload
// offers the partial sum to the station of either kind under the one δ,
// and Initiate sends the kind's packet (SendGather, SendAccumulate), both
// on a line's initiator and as the δ fallback.
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
	// GatherCapacity is η, the payload capacity of a gather packet and
	// the merge budget of an accumulate packet: how many operands one
	// packet may carry or absorb, its own included.
	GatherCapacity int
	// EnableINA permits accumulate traffic on this NIC; with it off,
	// SendAccumulate and an accumulation-station SubmitPayload are
	// programming errors, so no accumulate packet can enter the fabric.
	EnableINA bool
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
	case c.Delta < 0:
		return fmt.Errorf("nic: Delta must be >= 0, got %d", c.Delta)
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

// queued is a packet waiting in the injection queue, in 32 bytes: past
// saturation the queue holds one per packet a source has not yet sent.
// Its source is the NIC's own node. A packet with a destination set, a
// carried payload, a gather capacity or merge budget, a reduction id or a
// length past 16 bits waits whole in the NIC's side table instead, which
// rare indexes from 1 (0 for none); the entry's own fields still hold what
// binding reads.
type queued struct {
	id     uint64
	inject int64
	dst    int32
	tag    flit.Tag
	flits  uint16
	pt     flit.PacketType
	track  bool
	rare   uint32
}

// parcel is a packet on its way into the queue, with the payload it
// carries by value (its Carried is nil): a send copies the payload into the
// NIC's side table and keeps no pointer to its caller's, so no send puts a
// payload on the heap.
type parcel struct {
	pkt     flit.Packet
	own     flit.Payload
	carries bool
}

// push queues pc, keeping it whole in the side table when its entry cannot
// hold it.
func (n *NIC) push(pc parcel) {
	p := &pc.pkt
	q := queued{id: p.ID, inject: p.InjectCycle, dst: int32(p.Dst), tag: p.Tag,
		flits: uint16(p.Flits), pt: p.PT, track: p.TrackOperands}
	if p.MDst != nil || pc.carries || p.GatherCapacity != 0 || p.ReduceID != 0 || int(q.flits) != p.Flits {
		i, ok := n.spare.Get()
		if !ok {
			n.rare = append(n.rare, parcel{})
			i = uint32(len(n.rare))
		}
		n.rare[i-1] = pc
		q.rare = i
	}
	n.queue.PushBackIn(&n.eject.shared.queues, q)
}

// packet rebuilds the packet of a queued entry. A carried payload stays in
// the side table: the packet's Carried points at its slot, valid until the
// next push.
func (n *NIC) packet(q queued) flit.Packet {
	if q.rare != 0 {
		pc := &n.rare[q.rare-1]
		p := pc.pkt
		if pc.carries {
			p.Carried = &pc.own
		}
		return p
	}
	return flit.Packet{ID: q.id, Tag: q.tag, PT: q.pt, Src: n.id, Dst: topology.NodeID(q.dst),
		Flits: int(q.flits), TrackOperands: q.track, InjectCycle: q.inject}
}

// pop dequeues the front packet, freeing its side-table slot. The slot's
// payload, which holds no pointer, stays until the next push takes the
// slot, so the packet's Carried can be packetized (bindTo).
func (n *NIC) pop() flit.Packet {
	q := n.queue.PopFront()
	p := n.packet(q)
	if q.rare != 0 {
		n.rare[q.rare-1].pkt = flit.Packet{}
		n.spare.Put(q.rare)
	}
	return p
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

	// delta is this NIC's δ timeout, Config.Delta until SetDelta
	// overrides it.
	delta int64

	credits []uint8
	// vcPkt holds the remaining flits of the packet currently streaming on
	// each injection VC.
	vcPkt []vcStream
	// queue holds packets awaiting a free injection VC, one 32-byte entry
	// each (queued). A chunked deque rather than an append/filter slice:
	// open-loop workloads run the queue deep past saturation, and the
	// deque's recycled fixed-size blocks never copy on growth and never
	// abandon a backing array. rare holds the whole packets of the entries
	// that carry more than a unicast header, with their payloads, and spare
	// its free slots.
	queue ring.Deque[queued]
	rare  []parcel
	spare ring.FreeList[uint32]
	// waits[k] lists the payloads offered to the router's station of kind
	// k awaiting pickup: gather payloads, then accumulation operands.
	waits [reduce.NumKinds][]gatherWait
	// sweepAt is the earliest cycle the timeout sweeps have work in: the
	// earliest δ or retransmission deadline, or the cycle of an ack whose
	// wait is still listed. Before it Tick leaves the wait lists and the
	// reliability table alone. It is derived from them (a restored NIC
	// starts at 0 and the first sweep brings it up to date).
	sweepAt int64
	sendRR  uint8
	// fed says that the NIC took work since its state was last loaded:
	// a packet to send or a payload or operand to offer (Fed).
	fed bool
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
	// counts payloads picked up by passing gather packets. Their INA
	// counterparts: SelfInitiatedReduces counts δ-timeout fallback
	// accumulate packets, MergeAcks operands folded into passing
	// accumulate packets.
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
	n.delta = cfg.Delta
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

// Fed reports whether the NIC took work since its state was last loaded
// (LoadState): a packet to send (every Send*, the δ fallbacks) or a
// payload or operand to offer (SubmitPayload). A fabric fed only through
// its NICs, none of them fed, holds the state it was loaded with
// (noc.Network.Release).
func (n *NIC) Fed() bool { return n.fed }

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
	return n.enqueue(parcel{pkt: flit.Packet{Tag: tag, PT: flit.Unicast, Src: n.id, Dst: dst, Flits: nFlits}})
}

// SendUnicastPayload queues a unicast packet carrying one result payload —
// the repetitive-unicast transport for a PE's partial sum.
func (n *NIC) SendUnicastPayload(tag flit.Tag, dst topology.NodeID, p flit.Payload) uint64 {
	return n.enqueue(parcel{pkt: flit.Packet{
		Tag: tag, PT: flit.Unicast, Src: n.id, Dst: dst, Flits: n.cfg.UnicastFlits,
	}, own: p, carries: true})
}

// SendMulticast queues a multicast packet of nFlits flits to the
// destination set.
func (n *NIC) SendMulticast(tag flit.Tag, dsts *topology.DestSet, nFlits int) uint64 {
	return n.enqueue(parcel{pkt: flit.Packet{
		Tag: tag, PT: flit.Multicast, Src: n.id, MDst: dsts.Clone(), Flits: nFlits,
	}})
}

// SendMulticastPayload queues a multicast packet of nFlits flits carrying
// one payload to every destination — the broadcast leg of a collective
// tree. The XY multicast tree copies the payload on every fork
// (router.flitForBranch clones flit payload slices), so each destination's
// ejector reassembles a packet delivering the same value.
func (n *NIC) SendMulticastPayload(tag flit.Tag, dsts *topology.DestSet, nFlits int, p flit.Payload) uint64 {
	return n.enqueue(parcel{pkt: flit.Packet{
		Tag: tag, PT: flit.Multicast, Src: n.id, MDst: dsts.Clone(), Flits: nFlits,
	}, own: p, carries: true})
}

// SendGather queues a gather packet to dst with the configured capacity,
// optionally pre-loaded with a copy of the sender's own payload. This is
// the initiator path: in the paper's row-based scheme the leftmost PE of
// each row launches the packet toward the global buffer.
func (n *NIC) SendGather(tag flit.Tag, dst topology.NodeID, own *flit.Payload) uint64 {
	capacity := n.cfg.GatherCapacity
	pc := parcel{pkt: flit.Packet{
		Tag: tag, PT: flit.Gather, Src: n.id, Dst: dst,
		Flits:          n.cfg.Format.GatherFlits(capacity),
		GatherCapacity: capacity,
	}}
	if own != nil {
		pc.own, pc.carries = *own, true
	}
	return n.enqueue(pc)
}

// SubmitPayload is the piggyback path of Algorithm 1: the payload is
// offered to the router's station of kind k, the Gather Payload station
// or (INA) the accumulation station; if no passing packet of the kind
// picks it up within δ cycles the NIC retracts it and initiates its own
// packet of the kind carrying it to the payload's destination.
func (n *NIC) SubmitPayload(k reduce.Kind, tag flit.Tag, p flit.Payload) {
	if k == reduce.ReduceStation {
		n.requireINA("an accumulation-station SubmitPayload")
		p.Ops = p.OpsCount()
	}
	n.fed = true
	if n.reliable != nil {
		n.track(p, tag)
	}
	if !n.rtr.Offer(k, p) {
		// Station full: fall back immediately.
		n.selfInitiate(k, p, tag)
		return
	}
	deadline := n.currentCycle() + n.delta
	n.waits[k] = append(n.waits[k], gatherWait{payload: p, deadline: deadline, tag: tag})
	n.sweepBy(deadline)
	n.wake.Wake()
}

// Acked implements reduce.Owner: it marks the payload waiting at the
// station of kind k picked up by a passing gather packet or merged into a
// passing accumulate packet. Payload sequence numbers are run-unique, so
// the lookup is exact. The NIC's next tick (this cycle's: routers tick
// first) drops the wait.
func (n *NIC) Acked(k reduce.Kind, p flit.Payload) {
	markAcked(n.waits[k], p.Seq)
	acks, _ := n.kindCounters(k)
	acks.Inc()
	n.sweepBy(n.currentCycle())
	n.wake.Wake()
}

// kindCounters returns the counters of station kind k: payloads picked up
// by passing packets, and δ-timeout fallback packets.
func (n *NIC) kindCounters(k reduce.Kind) (acks, fallbacks *stats.Counter) {
	if k == reduce.GatherStation {
		return &n.PiggybackAcks, &n.SelfInitiatedGathers
	}
	return &n.MergeAcks, &n.SelfInitiatedReduces
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

// SendAccumulate queues an accumulate packet to dst seeded with the
// sender's own operand — the INA initiator path: in the row-based scheme
// the leftmost PE of each row launches the packet toward the global
// buffer, and every router en route folds its local partial sum in.
func (n *NIC) SendAccumulate(tag flit.Tag, dst topology.NodeID, reduceID uint64, own flit.Payload) uint64 {
	n.requireINA("SendAccumulate")
	return n.enqueue(parcel{pkt: flit.Packet{
		Tag: tag, PT: flit.Accumulate, Src: n.id, Dst: dst,
		Flits:          flit.AccumulateFlits,
		GatherCapacity: n.cfg.GatherCapacity,
		ReduceID:       reduceID,
		// With end-to-end reliability on, merged operands stay separate
		// payload entries so the ejector can suppress duplicates per
		// operand (flit.MergePayload).
		TrackOperands: n.reliable != nil,
	}, own: own, carries: true})
}

// Initiate queues the packet of station kind k seeded with p to dst — a
// gather packet (SendGather) or an accumulate packet (SendAccumulate) —
// and returns its packet id: the initiator path of a line, and the δ
// fallback of a payload no passing packet picked up.
func (n *NIC) Initiate(k reduce.Kind, tag flit.Tag, dst topology.NodeID, p flit.Payload) uint64 {
	if k == reduce.GatherStation {
		return n.SendGather(tag, dst, &p)
	}
	return n.SendAccumulate(tag, dst, p.ReduceID, p)
}

// Pending reports whether the NIC still has packets queued, flits
// streaming, or payloads awaiting pickup.
func (n *NIC) Pending() bool {
	return n.streaming > 0 || n.queue.Len() > 0 || n.waitsPending() ||
		n.eject.Buffered() > 0 || n.eject.PendingPackets() > 0 ||
		(n.reliable != nil && len(n.reliable.entries) > 0)
}

// waitsPending reports whether a payload awaits pickup at either station.
func (n *NIC) waitsPending() bool {
	for _, ws := range n.waits {
		if len(ws) > 0 {
			return true
		}
	}
	return false
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
		for k := range reduce.NumKinds {
			n.waits[k] = n.sweepTimeouts(k, n.waits[k])
		}
		n.sweepReliable()
	}
	n.bindPackets()
	n.injectOne(cycle)
}

// sweepTimeouts drops the acked waiters of station kind k and fires the δ
// fallback for expired ones. Retract succeeds only while the payload is
// still pending at the station; if a packet reserved it, the ack is
// imminent and we keep waiting (retry next cycle if the reservation is
// released). The fallback packet is enqueued under the tag the payload was
// submitted with. Every wait that stays listed books its deadline with
// sweepBy.
func (n *NIC) sweepTimeouts(k reduce.Kind, waiting []gatherWait) []gatherWait {
	if len(waiting) == 0 {
		return waiting
	}
	keep := waiting[:0]
	for i := range waiting {
		w := waiting[i]
		if w.acked {
			continue
		}
		if n.now >= w.deadline && n.rtr.Retract(k, w.payload.Seq) {
			n.selfInitiate(k, w.payload, w.tag)
			continue
		}
		n.sweepBy(w.deadline)
		keep = append(keep, w)
	}
	return keep
}

// selfInitiate is the δ fallback: the NIC sends payload p, which no
// passing packet picked up from the station of kind k, in a packet of the
// kind of its own.
func (n *NIC) selfInitiate(k reduce.Kind, p flit.Payload, tag flit.Tag) {
	n.Initiate(k, tag, p.Dst, p)
	_, fallbacks := n.kindCounters(k)
	fallbacks.Inc()
}

func (n *NIC) enqueue(pc parcel) uint64 {
	n.fed = true
	p := &pc.pkt
	p.ID = n.nextID(n.id)
	p.InjectCycle = n.currentCycle()
	if n.reliable != nil && pc.carries {
		n.track(pc.own, p.Tag)
	}
	n.push(pc)
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
			vc := n.freeVCFor(n.queue.FrontPtr().pt)
			if vc < 0 {
				return
			}
			n.bindTo(vc, n.pop())
		}
		return
	}
	for i, m := 0, n.queue.Len(); i < m; i++ {
		vc := n.freeVCFor(n.queue.FrontPtr().pt)
		if vc < 0 {
			n.queue.PushBack(n.queue.PopFront())
			continue
		}
		n.bindTo(vc, n.pop())
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
