package nic

import (
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/ring"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// ReceivedPacket is a fully reassembled packet delivered at an ejection
// point (a PE's NIC or a global-buffer edge sink).
//
// Ownership: the packet passed to an OnReceive callback is owned by the
// ejector and valid only for the duration of the callback — the record
// and its Payloads slice are scratch storage reused for the next packet.
// Callbacks that keep the packet (or its payloads) past their return must
// Clone it.
type ReceivedPacket struct {
	// ID is the network-unique packet id.
	ID uint64
	// Tag is the workload job/phase the packet belongs to (zero for
	// untagged traffic); workload schedulers dispatch on it.
	Tag flit.Tag
	// PT is the packet type.
	PT flit.PacketType
	// Src is the injecting node; Dst the addressed destination.
	Src topology.NodeID
	Dst topology.NodeID
	// At is the node where the packet ejected: the receiving NIC's node id
	// or the sink's virtual id. For unicast traffic it equals Dst, but a
	// multicast packet is reassembled once per destination and Dst says
	// nothing about which copy this is — collective drivers dispatch
	// per-node broadcast receipts on At.
	At topology.NodeID
	// Flits is the packet length.
	Flits int
	// Payloads are the gather payloads collected by the packet (gather
	// packets only), in upload order.
	Payloads []flit.Payload
	// InjectCycle is when the packet entered its source injection queue;
	// NetworkCycle is when its head flit left the NIC into the router;
	// HeadArrival/TailArrival are the ejection-side timestamps. Packet
	// latency is TailArrival - InjectCycle.
	InjectCycle  int64
	NetworkCycle int64
	HeadArrival  int64
	TailArrival  int64
	// Hops is the number of routers the head flit traversed (source
	// router included; minimal routing yields Manhattan distance + 1).
	Hops int
}

// Latency returns the end-to-end packet latency in cycles.
func (p *ReceivedPacket) Latency() int64 { return p.TailArrival - p.InjectCycle }

// QueueLatency returns the source-side queueing delay: the cycles between
// entering the injection queue and the head flit entering the network.
func (p *ReceivedPacket) QueueLatency() int64 { return p.NetworkCycle - p.InjectCycle }

// NetworkLatency returns the in-network portion of the latency: head
// injection to tail ejection.
func (p *ReceivedPacket) NetworkLatency() int64 { return p.TailArrival - p.NetworkCycle }

// Clone returns a deep copy of the packet (payloads included) that stays
// valid after the OnReceive callback returns.
func (p *ReceivedPacket) Clone() *ReceivedPacket {
	c := *p
	if len(p.Payloads) > 0 {
		c.Payloads = append([]flit.Payload(nil), p.Payloads...)
	}
	return &c
}

// partialPacket accumulates one packet under reassembly. The head flit's
// routing and timing fields are copied in on arrival and each flit's
// payloads appended, so the flits themselves are released back to the
// pool immediately instead of being held until the tail shows up. Node
// ids, the flit count and the hop count are held in 32 bits: a fabric
// holds one record per ejection VC.
type partialPacket struct {
	id           uint64
	injectCycle  int64
	networkCycle int64
	headArrival  int64
	payloads     []flit.Payload // backing array reused across packets
	tag          flit.Tag
	src, dst     int32
	flits, hops  int32
	pt           flit.PacketType
	corrupted    bool // any flit arrived fault-corrupted
}

// DeliveredPayload records one exactly-once payload delivery at an
// ejection point: the payload's run-unique Seq and its source NIC. The
// network's reliability hub, woken by the ejector that staged one, drains
// these in the cycle they were staged (serial sub-phase) and confirms the
// matching retransmission-table entries — the simulator's zero-cycle model
// of an end-to-end acknowledgment channel.
type DeliveredPayload struct {
	Seq uint64
	Src topology.NodeID
}

// Ejector is the receive side of an ejection point: per-VC buffers fed by
// the router's local output link, a bounded drain rate, credit return, and
// packet reassembly. Both NICs and global-buffer edge sinks embed one.
type Ejector struct {
	name      link.Name
	owner     topology.NodeID
	vcs       uint8
	depth     uint8
	drainRR   uint8
	drainRate int

	// bufs[v] is VC v's buffer, over slots[v*depth:(v+1)*depth].
	bufs    []ring.Fixed
	slots   []*flit.Flit
	reverse *link.Link // credits back to the router's output port
	// partial holds the packets under reassembly, in the order their
	// first flits arrived. Wormhole switching pins a packet to one VC from
	// head to tail, so at most vcs packets are ever open at once and a
	// linear scan beats a map. Past its length the slice keeps the closed
	// records, payload capacity intact, most recently closed first: the
	// next packets reopen them (acquirePartial, releasePartial).
	partial []*partialPacket
	// shared is what the ejectors and NICs of one slab share (slabShared).
	shared *slabShared
	pool   *flit.Pool // drained flits return here
	recv   func(*ReceivedPacket)
	wake   *sim.Handle // wakes the owning ticker (NIC or edge sink)

	probe    *telemetry.Probe
	probeLoc int32 // this ejection point's node id in trace events

	// packetOverhead stalls the drain for this many cycles after every
	// completed packet, modeling a per-packet write transaction at the
	// receiving buffer. The global-buffer sinks use it (see
	// noc.Config.SinkPacketOverhead); PE NICs default to 0.
	packetOverhead int64
	pausedUntil    int64

	// Staged delivery (sharded engines): instead of firing recv inside
	// Tick — which runs concurrently across shards while the callbacks
	// mutate shared driver state — completed packets are parked here and
	// replayed by DispatchStaged in the serial sub-phase, in the exact
	// order the sequential engine would have fired them. Payloads are
	// copied into the stagedPay arena (slices would dangle once the
	// partial record is recycled); both slices are reused across cycles.
	// dispatcher is the handle of whoever calls DispatchStaged, woken when
	// a packet is parked; nil while delivery is immediate.
	dispatcher *sim.Handle
	stagedPkt  []stagedPacket
	stagedPay  []flit.Payload

	// Fault awareness (SetFaultAware; nil/false on fault-free fabrics).
	// seen records every payload Seq ever delivered here, so a slow
	// original arriving after its retransmission (or vice versa) is
	// suppressed — the exactly-once guarantee the reduction oracles
	// depend on. delivered stages the cycle's confirmations for the
	// reliability hub (DrainDelivered), whose handle hub is.
	seen      map[uint64]struct{}
	delivered []DeliveredPayload
	hub       *sim.Handle

	// FlitsEjected counts drained flits; PacketsEjected completed packets.
	FlitsEjected   stats.Counter
	PacketsEjected stats.Counter
	// PacketsDiscarded counts reassembled packets dropped by the receiver
	// CRC model (a fault corrupted at least one flit); DuplicatesSuppressed
	// counts payloads filtered by exactly-once dedup.
	PacketsDiscarded     stats.Counter
	DuplicatesSuppressed stats.Counter
}

// stagedPacket is one completed packet awaiting serial-phase dispatch.
// Payloads are recorded as an offset/length into the ejector's stagedPay
// arena, not a slice: the arena's backing array may move as later packets
// append to it within the same cycle.
type stagedPacket struct {
	pkt            ReceivedPacket // Payloads nil; filled at dispatch
	payOff, payLen int
}

// ejectorSlab is the memory of a block of ejectors of one shape, allocated
// at once so that an ejector allocates nothing after construction: each
// VC's buffer (depth slots) and partial-packet record, room to stage
// drainRate packets a cycle, and what they share.
type ejectorSlab struct {
	rings  []ring.Fixed
	flits  []*flit.Flit
	recs   []partialPacket
	open   []*partialPacket
	staged []stagedPacket
	shared *slabShared
}

// slabShared is what the n ejectors of a slab, and the NICs they belong
// to, share: they are ticked one at a time, by one shard. packet is handed
// to recv, reused per packet, and is valid only during the callback.
// queues serves the NICs' injection queues their first blocks, on first
// use.
type slabShared struct {
	packet ReceivedPacket
	queues ring.Arena[queued]
}

func newEjectorSlab(n, vcs, depth, drainRate int) ejectorSlab {
	return ejectorSlab{
		rings:  make([]ring.Fixed, n*vcs),
		flits:  make([]*flit.Flit, n*vcs*depth),
		recs:   make([]partialPacket, n*vcs),
		open:   make([]*partialPacket, n*vcs),
		staged: make([]stagedPacket, n*max(drainRate, 1)),
		shared: &slabShared{queues: ring.NewArena[queued](n)},
	}
}

// init makes e an ejector with vcs virtual channels (at most 64) of the
// given buffer depth (at most 255), draining up to drainRate flits per
// cycle (minimum 1), out of the slab.
func (s *ejectorSlab) init(e *Ejector, name link.Name, vcs, depth, drainRate int) {
	drainRate = max(drainRate, 1)
	if vcs > maxVCs || depth > maxDepth {
		panic(fmt.Sprintf("ejector %s: %d VCs of depth %d, more than a byte counts", name, vcs, depth))
	}
	open, recs := carve(&s.open, vcs), carve(&s.recs, vcs)
	for v := range open {
		open[v] = &recs[v]
	}
	*e = Ejector{
		name:      name,
		vcs:       uint8(vcs),
		depth:     uint8(depth),
		drainRate: drainRate,
		// AcceptFlit bounds occupancy first, so a VC's depth slots are
		// all it ever needs.
		bufs:      carve(&s.rings, vcs),
		slots:     carve(&s.flits, vcs*depth),
		partial:   open[:0], // every record closed
		shared:    s.shared,
		stagedPkt: carve(&s.staged, drainRate)[:0],
	}
}

// slotsOf returns the buffer slots of VC v.
func (e *Ejector) slotsOf(v int) []*flit.Flit {
	d := int(e.depth)
	return e.slots[v*d : v*d+d : v*d+d]
}

// NewEjector returns an ejector with vcs virtual channels (at most 64) of
// the given buffer depth (at most 255), draining up to drainRate flits per
// cycle (minimum 1).
func NewEjector(name link.Name, vcs, depth, drainRate int) *Ejector {
	s := newEjectorSlab(1, vcs, depth, drainRate)
	e := new(Ejector)
	s.init(e, name, vcs, depth, drainRate)
	return e
}

// SetOwner records the node id of the ejection point (the NIC's node or
// the sink's virtual id), stamped onto every ReceivedPacket's At field.
func (e *Ejector) SetOwner(id topology.NodeID) { e.owner = id }

// ConnectReverse sets the link used to return credits to the router.
func (e *Ejector) ConnectReverse(l *link.Link) { e.reverse = l }

// SetWake attaches the wake handle of the ticker that drains this ejector
// (the owning NIC or edge sink); flit deliveries arm it.
func (e *Ejector) SetWake(h *sim.Handle) { e.wake = h }

// SetFlitPool attaches the network's flit pool; drained flits are released
// into it once their payloads and header fields have been absorbed. A nil
// pool (standalone tests) leaves flits to the garbage collector.
func (e *Ejector) SetFlitPool(p *flit.Pool) { e.pool = p }

// SetTelemetry attaches a lifecycle-trace probe; loc is the node id this
// ejection point reports on its events. On tail arrival the ejector emits
// the packet's full endpoint timeline (inject/network/head/eject) from the
// timestamps the flits carried, so injection needs no hook of its own.
func (e *Ejector) SetTelemetry(p *telemetry.Probe, loc int) {
	e.probe = p
	e.probeLoc = int32(loc)
}

// SetPacketOverhead configures the per-packet transaction stall in cycles
// (negative values are ignored).
func (e *Ejector) SetPacketOverhead(cycles int64) {
	if cycles >= 0 {
		e.packetOverhead = cycles
	}
}

// OnReceive registers the completed-packet callback. The *ReceivedPacket
// argument is only valid during the callback; see ReceivedPacket.
func (e *Ejector) OnReceive(fn func(*ReceivedPacket)) { e.recv = fn }

// SetFaultAware switches on the receive-side recovery machinery:
// corrupted packets are discarded on reassembly (the CRC model) and
// payload deliveries are deduplicated by Seq and staged as confirmations
// for the reliability hub, which is woken through hub whenever one is
// staged. Off (the default) none of its state exists and the assemble path
// is unchanged.
func (e *Ejector) SetFaultAware(hub *sim.Handle) {
	if e.seen == nil {
		e.seen = make(map[uint64]struct{})
	}
	e.hub = hub
}

// DrainDelivered hands every payload delivery confirmed since the last
// drain to fn, in delivery order, and clears the staging list. Called by
// the network's reliability hub on the serial sub-phase.
func (e *Ejector) DrainDelivered(fn func(DeliveredPayload)) {
	for _, d := range e.delivered {
		fn(d)
	}
	e.delivered = e.delivered[:0]
}

// AcceptFlit implements link.FlitSink.
func (e *Ejector) AcceptFlit(f *flit.Flit, vc int) {
	if e.bufs[vc].Len() >= int(e.depth) {
		panic(fmt.Sprintf("ejector %s: vc%d overflow (%s)", e.name, vc, f))
	}
	ring.PushBack(&e.bufs[vc], e.slotsOf(vc), f)
	e.wake.Wake()
}

// Buffered reports the flits currently waiting to drain.
func (e *Ejector) Buffered() int {
	n := 0
	for v := range e.bufs {
		n += e.bufs[v].Len()
	}
	return n
}

// Occupancy returns the flits buffered on vc, the ejector's end of the
// credit loop link.Link.CheckInvariants balances.
func (e *Ejector) Occupancy(vc int) int { return e.bufs[vc].Len() }

// PendingPackets reports partially reassembled packets.
func (e *Ejector) PendingPackets() int { return len(e.partial) }

// NextDrain returns, for an ejector last ticked in cycle now, the earliest
// later cycle in which Tick drains a flit if none arrives meanwhile: the
// next cycle with flits buffered, the end of the per-packet stall when that
// comes later, sim.Never with nothing buffered. The owning ticker sleeps
// until then; arrivals wake it.
func (e *Ejector) NextDrain(now int64) int64 {
	if e.Buffered() == 0 {
		return sim.Never
	}
	return max(now+1, e.pausedUntil)
}

// Tick drains up to drainRate flits round-robin across VCs, returning one
// credit per drained flit and completing packets on tail arrival. After a
// packet completes, the drain stalls for the configured per-packet
// transaction overhead.
func (e *Ejector) Tick(cycle int64) {
	if cycle < e.pausedUntil {
		return
	}
	vcs := int(e.vcs)
	for slot := 0; slot < e.drainRate; slot++ {
		drained := false
		for off := 0; off < vcs; off++ {
			vc := (int(e.drainRR) + off) % vcs
			if e.bufs[vc].Empty() {
				continue
			}
			f := ring.PopFront(&e.bufs[vc], e.slotsOf(vc))
			e.drainRR = uint8((vc + 1) % vcs)
			if e.reverse != nil {
				e.reverse.ReturnCredit(vc, cycle)
			}
			e.FlitsEjected.Inc()
			isTail := f.IsTail()
			e.assemble(f, cycle)
			if isTail && e.packetOverhead > 0 {
				e.pausedUntil = cycle + 1 + e.packetOverhead
				return
			}
			drained = true
			break
		}
		if !drained {
			return
		}
	}
}

// lookup finds the open partial record for the packet, or nil.
func (e *Ejector) lookup(id uint64) *partialPacket {
	for _, pp := range e.partial {
		if pp.id == id {
			return pp
		}
	}
	return nil
}

// acquirePartial opens a record for a new packet at the end of the open
// list: the most recently closed one, else a fresh one.
func (e *Ejector) acquirePartial() *partialPacket {
	n := len(e.partial)
	if n < cap(e.partial) {
		if pp := e.partial[:n+1][n]; pp != nil {
			e.partial = e.partial[:n+1]
			return pp
		}
	}
	pp := &partialPacket{}
	e.partial = append(e.partial, pp)
	return pp
}

// releasePartial closes pp: it leaves the open list, keeping the order of
// the rest, to sit just past its end, reset but with its payload capacity.
func (e *Ejector) releasePartial(pp *partialPacket) {
	last := len(e.partial) - 1
	for i, cur := range e.partial {
		if cur == pp {
			copy(e.partial[i:], e.partial[i+1:])
			e.partial[last] = pp
			e.partial = e.partial[:last]
			break
		}
	}
	payloads := pp.payloads[:0]
	*pp = partialPacket{payloads: payloads}
}

func (e *Ejector) assemble(f *flit.Flit, cycle int64) {
	pp := e.lookup(f.PacketID)
	if pp == nil {
		pp = e.acquirePartial()
		pp.id = f.PacketID
		pp.headArrival = cycle
	}
	if f.IsHead() {
		pp.pt = f.PT
		pp.tag = f.Tag
		pp.src = int32(f.Src)
		pp.dst = int32(f.Dst)
		pp.flits = int32(f.PacketFlits)
		pp.injectCycle = f.InjectCycle
		pp.networkCycle = f.NetworkCycle
		pp.hops = int32(f.Hops)
	}
	pp.payloads = append(pp.payloads, f.Payloads...)
	pp.corrupted = pp.corrupted || f.Corrupted
	isTail := f.IsTail()
	e.pool.Release(f)
	if !isTail {
		return
	}
	if e.seen != nil && pp.corrupted {
		// Receiver CRC check: the packet arrived damaged, so nothing is
		// delivered and no payload is confirmed — the source's
		// retransmission timer recovers the loss.
		e.PacketsDiscarded.Inc()
		e.releasePartial(pp)
		return
	}
	if e.seen != nil && len(pp.payloads) > 0 {
		pp.payloads = e.dedupPayloads(pp.payloads)
	}
	rp := &e.shared.packet
	*rp = ReceivedPacket{
		ID:           pp.id,
		Tag:          pp.tag,
		PT:           pp.pt,
		Src:          topology.NodeID(pp.src),
		Dst:          topology.NodeID(pp.dst),
		At:           e.owner,
		Flits:        int(pp.flits),
		Payloads:     pp.payloads,
		InjectCycle:  pp.injectCycle,
		NetworkCycle: pp.networkCycle,
		HeadArrival:  pp.headArrival,
		TailArrival:  cycle,
		Hops:         int(pp.hops),
	}
	if len(rp.Payloads) == 0 {
		rp.Payloads = nil
	}
	e.PacketsEjected.Inc()
	if e.probe != nil && e.probe.Sampled(pp.id) {
		// Back-dated endpoint events: the source-side timestamps rode on
		// the head flit, so the whole timeline is emitted here at once.
		e.probe.Emit(telemetry.Event{Cycle: pp.injectCycle, Kind: telemetry.EvInject,
			Packet: pp.id, Tag: pp.tag, Loc: pp.src, Aux: int64(pp.dst)})
		e.probe.Emit(telemetry.Event{Cycle: pp.networkCycle, Kind: telemetry.EvNetwork,
			Packet: pp.id, Tag: pp.tag, Loc: pp.src})
		e.probe.Emit(telemetry.Event{Cycle: pp.headArrival, Kind: telemetry.EvHead,
			Packet: pp.id, Tag: pp.tag, Loc: e.probeLoc})
		e.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvEject,
			Packet: pp.id, Tag: pp.tag, Loc: e.probeLoc, Aux: int64(pp.hops)})
	}
	if e.dispatcher != nil {
		sp := stagedPacket{pkt: *rp, payOff: len(e.stagedPay), payLen: len(rp.Payloads)}
		sp.pkt.Payloads = nil
		e.stagedPay = append(e.stagedPay, rp.Payloads...)
		e.stagedPkt = append(e.stagedPkt, sp)
		e.dispatcher.Wake()
	} else if e.recv != nil {
		e.recv(rp)
	}
	// The callback has returned (or the packet was deep-copied into the
	// staging arena); pp, whose payload array rp borrowed, may now be
	// recycled.
	e.releasePartial(pp)
}

// dedupPayloads enforces exactly-once delivery: payloads whose Seq was
// already delivered here (a retransmission raced its slow original) are
// filtered out in place, and fresh ones are marked seen and staged as
// confirmations for the reliability hub.
func (e *Ejector) dedupPayloads(payloads []flit.Payload) []flit.Payload {
	kept := payloads[:0]
	for _, p := range payloads {
		if _, dup := e.seen[p.Seq]; dup {
			e.DuplicatesSuppressed.Inc()
			continue
		}
		e.seen[p.Seq] = struct{}{}
		e.delivered = append(e.delivered, DeliveredPayload{Seq: p.Seq, Src: p.Src})
		kept = append(kept, p)
	}
	if len(e.delivered) > 0 {
		e.hub.Wake()
	}
	return kept
}

// SetStaged switches the ejector to staged delivery: completed packets are
// buffered during Tick and their receive callbacks fired only when
// DispatchStaged is called; dispatcher is the handle of the component that
// calls it, woken whenever a packet is buffered. Sharded engines enable this
// so Tick can run concurrently while callbacks — which reach into shared
// workload/driver state — stay on the serial sub-phase.
func (e *Ejector) SetStaged(dispatcher *sim.Handle) { e.dispatcher = dispatcher }

// DispatchStaged fires the receive callback for every packet completed
// since the last dispatch, in completion order. The sharded engine calls
// it once per cycle, ejector by ejector in the sequential engine's
// registration order, which reproduces the sequential callback schedule
// exactly (DESIGN.md §9).
func (e *Ejector) DispatchStaged() {
	for i := range e.stagedPkt {
		sp := &e.stagedPkt[i]
		rp := &e.shared.packet
		*rp = sp.pkt
		if sp.payLen > 0 {
			rp.Payloads = e.stagedPay[sp.payOff : sp.payOff+sp.payLen]
		}
		if e.recv != nil {
			e.recv(rp)
		}
	}
	e.stagedPkt = e.stagedPkt[:0]
	e.stagedPay = e.stagedPay[:0]
}
