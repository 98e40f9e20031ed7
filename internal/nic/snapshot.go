package nic

import (
	"slices"

	"gathernoc/internal/flit"
	"gathernoc/internal/ring"
	"gathernoc/internal/stats"
)

// AppendState appends the ejector's state (flit.Encoder). In absolute mode
// it opens with the counters, the latency sample and, on a fault-aware
// ejector, the dedup set and the staged confirmations; the proof's relative
// mode leaves them out (statistics, and state only faulted fabrics have,
// which the periodicity proof does not cover: noc.Network.Bare). Both modes
// then write the held flits and open packets, or one byte when there are
// none, then the drain pointer and stall. The staged-delivery arenas are
// empty at every cycle boundary and are not written.
func (e *Ejector) AppendState(enc *flit.Encoder) {
	if !enc.Relative() {
		for _, c := range e.counters() {
			enc.Uint(c.Value())
		}
		enc.Sample(&e.PacketLatency)
		if e.seen != nil {
			seen := make([]uint64, 0, len(e.seen))
			for seq := range e.seen {
				seen = append(seen, seq)
			}
			slices.Sort(seen)
			enc.Uint(uint64(len(seen)))
			for _, seq := range seen {
				enc.Uint(seq)
			}
			enc.Uint(uint64(len(e.delivered)))
			for _, dp := range e.delivered {
				enc.Uint(dp.Seq)
				enc.Int(int64(dp.Src))
			}
		}
	}
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

// counters lists the ejector's counters, in the order AppendState writes
// them.
func (e *Ejector) counters() [4]*stats.Counter {
	return [...]*stats.Counter{&e.FlitsEjected, &e.PacketsEjected, &e.PacketsDiscarded, &e.DuplicatesSuppressed}
}

// appendHeld appends the flits and open packets the ejector holds.
func (e *Ejector) appendHeld(enc *flit.Encoder) {
	for v := range e.bufs {
		enc.Uint(uint64(e.bufs[v].Len()))
		for i := 0; i < e.bufs[v].Len(); i++ {
			ring.At(&e.bufs[v], e.slotsOf(v), i).AppendState(enc)
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

// LoadState replaces the ejector's state with the absolute encoding
// AppendState wrote; buffered flits are acquired from the attached pool.
func (e *Ejector) LoadState(d *flit.Decoder) error {
	for _, c := range e.counters() {
		c.Set(d.Uint())
	}
	d.Sample(&e.PacketLatency)
	if e.seen != nil {
		clear(e.seen)
		for n := d.Len(); n > 0; n-- {
			e.seen[d.Uint()] = struct{}{}
		}
		e.delivered = e.delivered[:0]
		for n := d.Len(); n > 0; n-- {
			e.delivered = append(e.delivered, DeliveredPayload{Seq: d.Uint(), Src: d.PE("confirmed payload source")})
		}
	}
	for v := range e.bufs {
		ring.Clear(&e.bufs[v], e.slotsOf(v))
	}
	for len(e.partial) > 0 {
		e.releasePartial(e.partial[0])
	}
	if !d.Bool() {
		e.loadHeld(d)
	}
	e.drainRR = uint8(d.IntRange(0, int(e.vcs)-1, "drain pointer"))
	e.pausedUntil = d.Int()
	return d.Err()
}

// loadHeld reads what appendHeld wrote.
func (e *Ejector) loadHeld(d *flit.Decoder) {
	for v := range e.bufs {
		for n := d.UintRange(0, int(e.depth), "ejection buffer flits"); n > 0; n-- {
			f := e.pool.Acquire()
			f.LoadState(d)
			ring.PushBack(&e.bufs[v], e.slotsOf(v), f)
		}
	}
	for n := d.UintRange(0, int(e.vcs), "open packets"); n > 0; n-- {
		pp := e.acquirePartial()
		payloads := pp.payloads[:0]
		*pp = partialPacket{
			id:           d.Uint(),
			tag:          flit.Tag(d.Uint()),
			pt:           flit.PacketType(d.Uint()),
			src:          d.PE("open packet source"),
			dst:          d.Node("open packet destination"),
			flits:        int(d.Int()),
			injectCycle:  d.Int(),
			networkCycle: d.Int(),
			hops:         int(d.Int()),
			headArrival:  d.Int(),
			corrupted:    d.Bool(),
		}
		for i := d.Len(); i > 0; i-- {
			var p flit.Payload
			p.LoadState(d)
			payloads = append(payloads, p)
		}
		pp.payloads = payloads
	}
}

// AppendState appends the NIC's state, its ejector's included
// (flit.Encoder). In absolute mode it opens with the counters and, with
// reliability on, the retransmission table; the proof's relative mode
// leaves them out (statistics, and a table only faulted fabrics have).
// Credits all home are one byte, and so are empty streams, queue and wait
// lists (the streaming count says the streams are empty). The wiring is
// construction's; the streaming count and the sweep cycle are derived.
func (n *NIC) AppendState(e *flit.Encoder) {
	if !e.Relative() {
		for _, c := range n.counters() {
			e.Uint(c.Value())
		}
		if n.reliable != nil {
			e.Uint(uint64(len(n.reliable.entries)))
			for _, re := range n.reliable.entries {
				re.payload.AppendState(e)
				e.Uint(uint64(re.tag))
				e.Int(re.deadline)
				e.Int(int64(re.attempt))
			}
		}
	}
	home := true
	for _, c := range n.credits {
		home = home && int(c) == n.cfg.RouterBufferDepth
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

// counters lists the NIC's counters, in the order AppendState writes them.
func (n *NIC) counters() [8]*stats.Counter {
	return [...]*stats.Counter{&n.PacketsInjected, &n.FlitsInjected, &n.SelfInitiatedGathers, &n.PiggybackAcks,
		&n.SelfInitiatedReduces, &n.MergeAcks, &n.Retransmits, &n.AbandonedPayloads}
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

func loadPacket(d *flit.Decoder) flit.Packet {
	p := flit.Packet{
		ID:             d.Uint(),
		Tag:            flit.Tag(d.Uint()),
		PT:             flit.PacketType(d.UintRange(int(flit.Unicast), int(flit.Accumulate), "packet type")),
		Src:            d.PE("packet source"),
		Dst:            d.Node("packet destination"),
		MDst:           d.Set(),
		Flits:          int(d.Int()),
		GatherCapacity: int(d.Int()),
		ReduceID:       d.Uint(),
	}
	if p.PT == flit.Multicast && p.MDst == nil {
		d.Failf("multicast packet without destinations")
	}
	if d.Bool() {
		p.Carried = &flit.Payload{}
		p.Carried.LoadState(d)
	}
	p.TrackOperands = d.Bool()
	p.InjectCycle = d.Int()
	return p
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

func loadWaits(d *flit.Decoder, ws []gatherWait) []gatherWait {
	for n := d.Len(); n > 0; n-- {
		var w gatherWait
		w.payload.LoadState(d)
		w.deadline = d.Int()
		w.acked = d.Bool()
		w.tag = flit.Tag(d.Uint())
		ws = append(ws, w)
	}
	return ws
}

// LoadState replaces the NIC's state, its ejector's included, with the
// absolute encoding AppendState wrote. Streaming flits are acquired from
// the attached pool; the streaming count is recomputed, and the first
// tick's sweep books the loaded deadlines.
func (n *NIC) LoadState(d *flit.Decoder) error {
	for _, c := range n.counters() {
		c.Set(d.Uint())
	}
	if rt := n.reliable; rt != nil {
		rt.entries = rt.entries[:0]
		clear(rt.index)
		for k := d.Len(); k > 0; k-- {
			var re reliableEntry
			re.payload.LoadState(d)
			re.tag = flit.Tag(d.Uint())
			re.deadline = d.Int()
			re.attempt = int(d.Int())
			rt.index[re.payload.Seq] = len(rt.entries)
			rt.entries = append(rt.entries, re)
		}
	}
	home := d.Bool()
	for v := range n.credits {
		n.credits[v] = uint8(n.cfg.RouterBufferDepth)
		if !home {
			n.credits[v] = uint8(d.IntRange(0, n.cfg.RouterBufferDepth, "injection credits"))
		}
	}
	n.streaming = 0
	for v := range n.vcPkt {
		n.vcPkt[v] = vcStream{flits: n.vcPkt[v].flits[:0]}
	}
	for n.queue.Len() > 0 {
		n.queue.PopFront()
	}
	n.waiting, n.rwaiting = n.waiting[:0], n.rwaiting[:0]
	if !d.Bool() {
		for v := range n.vcPkt {
			st := &n.vcPkt[v]
			for k := d.Len(); k > 0; k-- {
				f := n.pool.Acquire()
				f.LoadState(d)
				st.flits = append(st.flits, f)
			}
			if !st.empty() {
				n.streaming++
			}
		}
		for k := d.Len(); k > 0; k-- {
			n.queue.PushBack(loadPacket(d))
		}
		n.waiting = loadWaits(d, n.waiting)
		n.rwaiting = loadWaits(d, n.rwaiting)
	}
	n.sendRR = uint8(d.IntRange(0, n.cfg.VCs-1, "injection pointer"))
	n.now = d.Int()
	n.sweepAt = 0
	return n.eject.LoadState(d)
}
