package nic

import (
	"fmt"
	"sort"

	"gathernoc/internal/flit"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// PacketState serializes one queued packet by value; the multicast
// destination set and the carried payload (the two pointers a Packet
// holds) are flattened so a restored queue shares nothing with the
// captured network.
type PacketState struct {
	ID             uint64
	Tag            flit.Tag
	PT             flit.PacketType
	Src            topology.NodeID
	Dst            topology.NodeID
	HasMDst        bool
	MDst           []topology.NodeID `json:",omitempty"`
	Flits          int
	GatherCapacity int
	ReduceID       uint64
	HasCarried     bool
	Carried        flit.Payload
	TrackOperands  bool
	InjectCycle    int64
}

func capturePacket(p flit.Packet) PacketState {
	ps := PacketState{
		ID: p.ID, Tag: p.Tag, PT: p.PT, Src: p.Src, Dst: p.Dst,
		Flits: p.Flits, GatherCapacity: p.GatherCapacity, ReduceID: p.ReduceID,
		TrackOperands: p.TrackOperands, InjectCycle: p.InjectCycle,
	}
	if p.MDst != nil {
		ps.HasMDst = true
		ps.MDst = p.MDst.Nodes()
	}
	if p.Carried != nil {
		ps.HasCarried = true
		ps.Carried = *p.Carried
	}
	return ps
}

func (ps PacketState) materialize(numNodes int) flit.Packet {
	p := flit.Packet{
		ID: ps.ID, Tag: ps.Tag, PT: ps.PT, Src: ps.Src, Dst: ps.Dst,
		Flits: ps.Flits, GatherCapacity: ps.GatherCapacity, ReduceID: ps.ReduceID,
		TrackOperands: ps.TrackOperands, InjectCycle: ps.InjectCycle,
	}
	if ps.HasMDst {
		p.MDst = topology.DestSetOf(numNodes, ps.MDst...)
	}
	if ps.HasCarried {
		carried := ps.Carried
		p.Carried = &carried
	}
	return p
}

// WaitState serializes one payload awaiting collective pickup with its δ
// deadline.
type WaitState struct {
	Payload  flit.Payload
	Deadline int64
	Acked    bool
	Tag      flit.Tag
}

// ReliableEntryState serializes one unconfirmed payload of the
// end-to-end reliability table.
type ReliableEntryState struct {
	Payload  flit.Payload
	Tag      flit.Tag
	Deadline int64
	Attempt  int
}

// PartialState serializes one packet under reassembly at an ejector.
type PartialState struct {
	ID           uint64
	Tag          flit.Tag
	PT           flit.PacketType
	Src          topology.NodeID
	Dst          topology.NodeID
	Flits        int
	InjectCycle  int64
	NetworkCycle int64
	Hops         int
	HeadArrival  int64
	Corrupted    bool
	Payloads     []flit.Payload `json:",omitempty"`
}

// EjectorState serializes an ejection point's mutable state: the per-VC
// buffers, open reassembly records, drain rotation/stall, the
// exactly-once dedup set, staged delivery confirmations, and counters.
type EjectorState struct {
	Bufs                 [][]flit.State
	Partials             []PartialState `json:",omitempty"`
	DrainRR              int
	PausedUntil          int64
	Seen                 []uint64           `json:",omitempty"`
	Delivered            []DeliveredPayload `json:",omitempty"`
	FlitsEjected         stats.Counter
	PacketsEjected       stats.Counter
	PacketLatency        stats.Sample
	PacketsDiscarded     stats.Counter
	DuplicatesSuppressed stats.Counter
}

// CaptureState serializes the ejector. It must be called at a cycle
// boundary: in sharded mode the staged-delivery arenas are drained by
// DispatchStaged every cycle, so a non-empty arena means the snapshot
// was attempted mid-cycle.
func (e *Ejector) CaptureState() (EjectorState, error) {
	if len(e.stagedPkt) > 0 || len(e.stagedPay) > 0 {
		return EjectorState{}, fmt.Errorf("ejector %s: staged deliveries pending; snapshot only at cycle boundaries", e.name)
	}
	s := EjectorState{
		DrainRR:              e.drainRR,
		PausedUntil:          e.pausedUntil,
		FlitsEjected:         e.FlitsEjected,
		PacketsEjected:       e.PacketsEjected,
		PacketLatency:        e.PacketLatency.Clone(),
		PacketsDiscarded:     e.PacketsDiscarded,
		DuplicatesSuppressed: e.DuplicatesSuppressed,
	}
	s.Bufs = make([][]flit.State, e.vcs)
	for v := range e.bufs {
		for i := 0; i < e.bufs[v].Len(); i++ {
			s.Bufs[v] = append(s.Bufs[v], flit.CaptureFlit(e.bufs[v].At(i)))
		}
	}
	for _, pp := range e.partial {
		s.Partials = append(s.Partials, PartialState{
			ID: pp.id, Tag: pp.tag, PT: pp.pt, Src: pp.src, Dst: pp.dst,
			Flits: pp.flits, InjectCycle: pp.injectCycle, NetworkCycle: pp.networkCycle,
			Hops: pp.hops, HeadArrival: pp.headArrival, Corrupted: pp.corrupted,
			Payloads: append([]flit.Payload(nil), pp.payloads...),
		})
	}
	if e.seen != nil {
		s.Seen = make([]uint64, 0, len(e.seen))
		for seq := range e.seen {
			s.Seen = append(s.Seen, seq)
		}
		sort.Slice(s.Seen, func(i, j int) bool { return s.Seen[i] < s.Seen[j] })
	}
	if len(e.delivered) > 0 {
		s.Delivered = append([]DeliveredPayload(nil), e.delivered...)
	}
	return s, nil
}

// AppendState appends the ejector's decision state (flit.Encoder): what
// CaptureState captures but the counters and the latency sample, and but
// the dedup set and staged confirmations, which exist only on faulted
// fabrics (the periodicity proof does not cover those, noc.Network.Bare).
// An ejector holding no flit and no open packet is one byte before its
// drain pointer and stall.
func (e *Ejector) AppendState(enc *flit.Encoder) {
	empty := len(e.partial) == 0
	for v := range e.bufs {
		empty = empty && e.bufs[v].Empty()
	}
	enc.Bool(empty)
	if !empty {
		e.appendHeld(enc)
	}
	enc.Int(int64(e.drainRR))
	enc.Until(e.pausedUntil)
}

// appendHeld appends the flits and open packets the ejector holds.
func (e *Ejector) appendHeld(enc *flit.Encoder) {
	for v := range e.bufs {
		enc.Uint(uint64(e.bufs[v].Len()))
		for i := 0; i < e.bufs[v].Len(); i++ {
			e.bufs[v].At(i).AppendState(enc)
		}
	}
	enc.Uint(uint64(len(e.partial)))
	for _, pp := range e.partial {
		enc.Name(flit.PacketName, pp.id)
		enc.Uint(uint64(pp.tag))
		enc.Uint(uint64(pp.pt))
		enc.Int(int64(pp.src))
		enc.Int(int64(pp.dst))
		enc.Int(int64(pp.flits))
		enc.Cycle(pp.injectCycle)
		enc.Cycle(pp.networkCycle)
		enc.Int(int64(pp.hops))
		enc.Cycle(pp.headArrival)
		enc.Bool(pp.corrupted)
		enc.Uint(uint64(len(pp.payloads)))
		for i := range pp.payloads {
			pp.payloads[i].AppendState(enc)
		}
	}
}

// RestoreState replaces a freshly constructed ejector's state with the
// captured one; buffered flits materialize through the attached pool.
func (e *Ejector) RestoreState(s EjectorState, numNodes int) error {
	if len(s.Bufs) != e.vcs {
		return fmt.Errorf("ejector %s: snapshot has %d VCs, ejector has %d", e.name, len(s.Bufs), e.vcs)
	}
	e.drainRR = s.DrainRR
	e.pausedUntil = s.PausedUntil
	e.FlitsEjected = s.FlitsEjected
	e.PacketsEjected = s.PacketsEjected
	e.PacketLatency = s.PacketLatency.Clone()
	e.PacketsDiscarded = s.PacketsDiscarded
	e.DuplicatesSuppressed = s.DuplicatesSuppressed
	for v := range e.bufs {
		if len(s.Bufs[v]) > e.depth {
			return fmt.Errorf("ejector %s: snapshot overfills vc%d", e.name, v)
		}
		e.bufs[v].Reset()
		for _, fs := range s.Bufs[v] {
			e.bufs[v].PushBack(fs.Materialize(e.pool, numNodes))
		}
	}
	e.partial = e.partial[:0]
	for _, ps := range s.Partials {
		pp := e.acquirePartial()
		pp.id = ps.ID
		pp.tag = ps.Tag
		pp.pt = ps.PT
		pp.src = ps.Src
		pp.dst = ps.Dst
		pp.flits = ps.Flits
		pp.injectCycle = ps.InjectCycle
		pp.networkCycle = ps.NetworkCycle
		pp.hops = ps.Hops
		pp.headArrival = ps.HeadArrival
		pp.corrupted = ps.Corrupted
		pp.payloads = append(pp.payloads[:0], ps.Payloads...)
		e.partial = append(e.partial, pp)
	}
	if len(s.Seen) > 0 && e.seen == nil {
		return fmt.Errorf("ejector %s: snapshot carries dedup state but fault awareness is off", e.name)
	}
	if e.seen != nil {
		clear(e.seen)
		for _, seq := range s.Seen {
			e.seen[seq] = struct{}{}
		}
	}
	e.delivered = append(e.delivered[:0], s.Delivered...)
	return nil
}

// State is the complete mutable state of one NIC (its ejector included).
// Wiring — router, links, pool, clock, wake handles, ack callbacks — is
// rebuilt by construction; the streaming count is derived and recomputed.
type State struct {
	Credits []int
	// Streams holds the not-yet-sent remainder of the packet bound to
	// each injection VC.
	Streams  [][]flit.State `json:",omitempty"`
	Queue    []PacketState  `json:",omitempty"`
	Waiting  []WaitState    `json:",omitempty"`
	RWaiting []WaitState    `json:",omitempty"`
	SendRR   int
	Now      int64
	Reliable []ReliableEntryState `json:",omitempty"`

	PacketsInjected      stats.Counter
	FlitsInjected        stats.Counter
	SelfInitiatedGathers stats.Counter
	PiggybackAcks        stats.Counter
	SelfInitiatedReduces stats.Counter
	MergeAcks            stats.Counter
	Retransmits          stats.Counter
	AbandonedPayloads    stats.Counter

	Ejector EjectorState
}

// CaptureState serializes the NIC's mutable state at a cycle boundary.
func (n *NIC) CaptureState() (State, error) {
	es, err := n.eject.CaptureState()
	if err != nil {
		return State{}, err
	}
	s := State{
		Credits: append([]int(nil), n.credits...),
		SendRR:  n.sendRR,
		Now:     n.now,

		PacketsInjected:      n.PacketsInjected,
		FlitsInjected:        n.FlitsInjected,
		SelfInitiatedGathers: n.SelfInitiatedGathers,
		PiggybackAcks:        n.PiggybackAcks,
		SelfInitiatedReduces: n.SelfInitiatedReduces,
		MergeAcks:            n.MergeAcks,
		Retransmits:          n.Retransmits,
		AbandonedPayloads:    n.AbandonedPayloads,

		Ejector: es,
	}
	s.Streams = make([][]flit.State, n.cfg.VCs)
	for v := range n.vcPkt {
		st := &n.vcPkt[v]
		for i := st.next; i < len(st.flits); i++ {
			s.Streams[v] = append(s.Streams[v], flit.CaptureFlit(st.flits[i]))
		}
	}
	for i := 0; i < n.queue.Len(); i++ {
		s.Queue = append(s.Queue, capturePacket(n.queue.At(i)))
	}
	for _, w := range n.waiting {
		s.Waiting = append(s.Waiting, WaitState{Payload: w.payload, Deadline: w.deadline, Acked: w.acked, Tag: w.tag})
	}
	for _, w := range n.rwaiting {
		s.RWaiting = append(s.RWaiting, WaitState{Payload: w.payload, Deadline: w.deadline, Acked: w.acked, Tag: w.tag})
	}
	if n.reliable != nil {
		for _, e := range n.reliable.entries {
			s.Reliable = append(s.Reliable, ReliableEntryState{
				Payload: e.payload, Tag: e.tag, Deadline: e.deadline, Attempt: e.attempt,
			})
		}
	}
	return s, nil
}

// AppendState appends the NIC's decision state, its ejector's included
// (flit.Encoder): what CaptureState captures but the counters, and but the
// reliability table, which exists only on faulted fabrics. Credits all home
// are one byte, and so are empty streams, queue and wait lists (the
// streaming count says the streams are empty).
func (n *NIC) AppendState(e *flit.Encoder) {
	home := true
	for _, c := range n.credits {
		home = home && c == n.cfg.RouterBufferDepth
	}
	e.Bool(home)
	if !home {
		for _, c := range n.credits {
			e.Int(int64(c))
		}
	}
	idle := n.streaming == 0 && n.queue.Len() == 0 && len(n.waiting) == 0 && len(n.rwaiting) == 0
	e.Bool(idle)
	if !idle {
		for v := range n.vcPkt {
			st := &n.vcPkt[v]
			e.Uint(uint64(len(st.flits) - st.next))
			for i := st.next; i < len(st.flits); i++ {
				st.flits[i].AppendState(e)
			}
		}
		e.Uint(uint64(n.queue.Len()))
		for i := 0; i < n.queue.Len(); i++ {
			appendPacket(e, n.queue.At(i))
		}
		appendWaits(e, n.waiting)
		appendWaits(e, n.rwaiting)
	}
	e.Int(int64(n.sendRR))
	e.Until(n.now)
	n.eject.AppendState(e)
}

func appendPacket(e *flit.Encoder, p flit.Packet) {
	e.Name(flit.PacketName, p.ID)
	e.Uint(uint64(p.Tag))
	e.Uint(uint64(p.PT))
	e.Int(int64(p.Src))
	e.Int(int64(p.Dst))
	e.Set(p.MDst)
	e.Int(int64(p.Flits))
	e.Int(int64(p.GatherCapacity))
	e.Name(flit.ReduceName, p.ReduceID)
	e.Bool(p.Carried != nil)
	if p.Carried != nil {
		p.Carried.AppendState(e)
	}
	e.Bool(p.TrackOperands)
	e.Cycle(p.InjectCycle)
}

func appendWaits(e *flit.Encoder, ws []gatherWait) {
	e.Uint(uint64(len(ws)))
	for i := range ws {
		w := &ws[i]
		w.payload.AppendState(e)
		e.Until(w.deadline)
		e.Bool(w.acked)
		e.Uint(uint64(w.tag))
	}
}

// RestoreState replaces a freshly constructed NIC's state with the
// captured one. Streaming flits materialize through the attached pool;
// the streaming count is recomputed.
func (n *NIC) RestoreState(s State, numNodes int) error {
	if len(s.Credits) != len(n.credits) {
		return fmt.Errorf("nic %d: snapshot has %d VCs, nic has %d", n.id, len(s.Credits), len(n.credits))
	}
	if len(s.Reliable) > 0 && n.reliable == nil {
		return fmt.Errorf("nic %d: snapshot carries reliability state but reliability is off", n.id)
	}
	if err := n.eject.RestoreState(s.Ejector, numNodes); err != nil {
		return err
	}
	copy(n.credits, s.Credits)
	n.sendRR = s.SendRR
	n.now = s.Now
	n.sweepAt = 0 // derived: the first tick's sweep books the restored deadlines

	n.PacketsInjected = s.PacketsInjected
	n.FlitsInjected = s.FlitsInjected
	n.SelfInitiatedGathers = s.SelfInitiatedGathers
	n.PiggybackAcks = s.PiggybackAcks
	n.SelfInitiatedReduces = s.SelfInitiatedReduces
	n.MergeAcks = s.MergeAcks
	n.Retransmits = s.Retransmits
	n.AbandonedPayloads = s.AbandonedPayloads

	n.streaming = 0
	for v := range n.vcPkt {
		st := &n.vcPkt[v]
		st.flits = st.flits[:0]
		st.next = 0
		if v < len(s.Streams) {
			for _, fs := range s.Streams[v] {
				st.flits = append(st.flits, fs.Materialize(n.pool, numNodes))
			}
		}
		if !st.empty() {
			n.streaming++
		}
	}
	for n.queue.Len() > 0 {
		n.queue.PopFront()
	}
	for _, ps := range s.Queue {
		n.queue.PushBack(ps.materialize(numNodes))
	}
	n.waiting = n.waiting[:0]
	for _, w := range s.Waiting {
		n.waiting = append(n.waiting, gatherWait{payload: w.Payload, deadline: w.Deadline, acked: w.Acked, tag: w.Tag})
	}
	n.rwaiting = n.rwaiting[:0]
	for _, w := range s.RWaiting {
		n.rwaiting = append(n.rwaiting, gatherWait{payload: w.Payload, deadline: w.Deadline, acked: w.Acked, tag: w.Tag})
	}
	if n.reliable != nil {
		rt := n.reliable
		rt.entries = rt.entries[:0]
		clear(rt.index)
		for _, es := range s.Reliable {
			rt.index[es.Payload.Seq] = len(rt.entries)
			rt.entries = append(rt.entries, reliableEntry{
				payload: es.Payload, tag: es.Tag, deadline: es.Deadline, attempt: es.Attempt,
			})
		}
	}
	return nil
}

// GatherAckFunc exposes the NIC's gather-station ack handler so a
// restoring network can re-wire the router's station entries exactly as
// SubmitGatherPayload would have.
func (n *NIC) GatherAckFunc() func(flit.Payload) { return n.gatherAckFn }

// ReduceAckFunc is the INA twin of GatherAckFunc.
func (n *NIC) ReduceAckFunc() func(flit.Payload) { return n.reduceAckFn }
