package router

import (
	"math/bits"

	"gathernoc/internal/flit"
	"gathernoc/internal/reduce"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// AppendState appends the router's state (flit.Encoder). In absolute mode
// it opens with the Counters and the clock ties; the rest is written in
// both modes, less what the router's invariants (CheckInvariants) fix. Only
// the VCs in a port's occupancy, VA and active masks are written, after the
// masks: every other VC is at rest — no flit, idle, no wait, branch or Load
// — and its class is rewritten by route computation before VA reads it.
// With no VC in VA or active no downstream VC is owned, so the owners are
// written only while one is held. A router with no flit, no owned VC and
// every credit home — most of a fabric when a round opens — is its
// stations, its SA pointers and one byte. Lengths the construction fixes
// are not written. The wiring (links, routing function, capacities) is
// construction's, and the occupancy counters and slot masks are derived.
func (r *Router) AppendState(e *flit.Encoder) {
	if !e.Relative() {
		for _, c := range r.counters() {
			e.Uint(c.Value())
		}
		e.Uint(r.clockTies)
	}
	r.station.AppendState(e)
	r.rstation.AppendState(e)
	for p := 0; p < topology.NumPorts; p++ {
		e.Int(int64(r.saInputArb[p].next))
		e.Int(int64(r.saOutputArb[p].next))
	}
	held := r.vaPending > 0 || r.active > 0
	rest := !held && r.buffered == 0 && r.creditsHome()
	e.Bool(rest)
	if rest {
		return
	}
	e.Bool(held)
	for p := 0; p < topology.NumPorts; p++ {
		busy := r.occMask[p] | r.vaMask[p] | r.actMask[p]
		e.Uint(busy)
		for m := busy; m != 0; m &= m - 1 {
			r.appendVC(e, &r.inputs[p][bits.TrailingZeros64(m)])
		}
		o := &r.outputs[p]
		for dv := range o.credits {
			e.Int(int64(o.credits[dv]))
			if held {
				e.Int(int64(o.ownerPort[dv]))
				e.Int(int64(o.ownerVC[dv]))
			}
		}
	}
}

// counters lists the Counters' fields, in the order AppendState writes them.
func (r *Router) counters() [10]*stats.Counter {
	c := &r.Counters
	return [...]*stats.Counter{&c.BufferWrites, &c.BufferReads, &c.RCComputations, &c.VAAllocations,
		&c.SAGrants, &c.Crossings, &c.GatherUploads, &c.GatherReserves, &c.ReduceMerges, &c.ReduceReserves}
}

// creditsHome reports whether every output holds all its downstream
// buffer's credits.
func (r *Router) creditsHome() bool {
	for p := range r.outputs {
		o := &r.outputs[p]
		for _, c := range o.credits {
			if c != o.depth {
				return false
			}
		}
	}
	return true
}

func (r *Router) appendVC(e *flit.Encoder, vc *inputVC) {
	e.Uint(uint64(vc.buf.Len()))
	for i := 0; i < vc.buf.Len(); i++ {
		vc.buf.At(i).AppendState(e)
	}
	e.Uint(uint64(vc.stage))
	e.Int(int64(vc.wait))
	e.Uint(uint64(len(vc.branches)))
	for i := range vc.branches {
		br := &vc.branches[i]
		e.Int(int64(br.out))
		e.Set(br.dsts)
		e.Int(int64(br.vc))
		e.Bool(br.sent)
		e.Set(br.headMD)
	}
	e.Int(int64(vc.vcClass))
	gather, reduce := -1, -1
	if vc.gatherLoad && vc.gatherEntry != nil {
		gather = r.station.EntryIndex(vc.gatherEntry)
	}
	if vc.reduceLoad && vc.reduceEntry != nil {
		reduce = r.rstation.EntryIndex(vc.reduceEntry)
	}
	e.Int(int64(gather))
	e.Int(int64(reduce))
}

// LoadState replaces the router's state with the absolute encoding
// AppendState wrote, bounds-checking every port, VC, stage, arbiter pointer
// and station index it reads. Buffered flits are acquired from the router's
// pool; station entries are acked through the owning NIC's gatherAck and
// reduceAck, as its submissions wire them, and the VC-held entry pointers
// are re-linked by queue index. The occupancy counters and slot masks are
// recomputed.
func (r *Router) LoadState(d *flit.Decoder, gatherAck, reduceAck reduce.AckFunc) error {
	for _, c := range r.counters() {
		c.Set(d.Uint())
	}
	r.clockTies = d.Uint()
	r.station.LoadState(d, gatherAck)
	r.rstation.LoadState(d, reduceAck)
	for p := 0; p < topology.NumPorts; p++ {
		r.saInputArb[p].next = d.IntRange(0, r.saInputArb[p].n-1, "SA input pointer")
		r.saOutputArb[p].next = d.IntRange(0, r.saOutputArb[p].n-1, "SA output pointer")
	}
	r.buffered, r.loads, r.vaPending, r.active = 0, 0, 0, 0
	r.occMask, r.vaMask, r.actMask, r.loadMask = [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}
	rest := d.Bool()
	held := !rest && d.Bool()
	for p := 0; p < topology.NumPorts; p++ {
		var busy uint64
		if !rest {
			if busy = d.Uint(); busy>>len(r.inputs[p]) != 0 {
				d.Failf("input %s busy mask %#x beyond its %d VCs", topology.Port(p), busy, len(r.inputs[p]))
			}
		}
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			vc.buf.Reset()
			*vc = inputVC{buf: vc.buf, branches: vc.branches[:0]}
			if busy&(1<<v) != 0 {
				r.loadVC(d, p, v)
			}
		}
		o := &r.outputs[p]
		for dv := range o.credits {
			o.credits[dv], o.ownerPort[dv], o.ownerVC[dv] = o.depth, -1, -1
			if rest {
				continue
			}
			o.credits[dv] = d.IntRange(0, o.depth, "credit count")
			if held {
				op := d.IntRange(-1, topology.NumPorts-1, "owner port")
				o.ownerPort[dv] = op
				if op < 0 {
					o.ownerVC[dv] = d.IntRange(-1, -1, "owner VC of a free VC")
				} else {
					o.ownerVC[dv] = d.IntRange(0, len(r.inputs[op])-1, "owner VC")
				}
			}
		}
	}
	return d.Err()
}

// loadVC reads input VC v of port p, which LoadState has put at rest.
func (r *Router) loadVC(d *flit.Decoder, p, v int) {
	vc := &r.inputs[p][v]
	for n := d.UintRange(0, r.cfg.BufferDepth, "buffered flits"); n > 0; n-- {
		f := r.pool.Acquire()
		if f.LoadState(d); f.PT == flit.Multicast && f.MDst == nil {
			d.Failf("buffered multicast flit without destinations")
		}
		vc.buf.PushBack(f)
		r.buffered++
		r.occMask[p] |= 1 << v
	}
	vc.stage = vcStage(d.UintRange(int(vcIdle), int(vcActive), "VC stage"))
	vc.wait = d.IntRange(0, max(r.cfg.RCDelay, r.cfg.VADelay), "stage wait")
	for n := d.UintRange(0, topology.NumPorts, "branch count"); n > 0; n-- {
		out := topology.Port(d.IntRange(0, topology.NumPorts-1, "branch port"))
		o := &r.outputs[out]
		if !o.connected() {
			d.Failf("branch to unconnected port %s", out)
		}
		vc.branches = append(vc.branches, branchState{
			out:    out,
			dsts:   d.Set(),
			vc:     d.IntRange(-1, len(o.credits)-1, "branch VC"),
			sent:   d.Bool(),
			headMD: d.Set(),
		})
	}
	vc.vcClass = d.IntRange(0, max(r.cfg.VCClasses, 1)-1, "VC class")
	if i := int(d.Int()); i >= 0 {
		if vc.gatherEntry = r.station.EntryAt(i); vc.gatherEntry == nil {
			d.Failf("gather entry %d beyond the station's %d", i, r.station.Backlog())
		}
		vc.gatherLoad = true
		r.raiseLoad(p, v)
	}
	if i := int(d.Int()); i >= 0 {
		if vc.reduceEntry = r.rstation.EntryAt(i); vc.reduceEntry == nil {
			d.Failf("reduce entry %d beyond the station's %d", i, r.rstation.Backlog())
		}
		vc.reduceLoad = true
		r.raiseLoad(p, v)
	}
	switch vc.stage {
	case vcVA:
		r.vaPending++
		r.vaMask[p] |= 1 << v
	case vcActive:
		r.active++
		r.actMask[p] |= 1 << v
	}
}
