package router

import (
	"math/bits"
	"slices"

	"gathernoc/internal/flit"
	"gathernoc/internal/reduce"
	"gathernoc/internal/ring"
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
	for k := range r.cold.stations {
		r.cold.stations[k].AppendState(e)
	}
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
			r.appendVC(e, r.slot(p, bits.TrailingZeros64(m)))
		}
		if !r.connected(topology.Port(p)) {
			continue
		}
		for dv := 0; dv < r.cfg.VCs; dv++ {
			o := r.outVC(topology.Port(p), dv)
			e.Int(int64(o.credits))
			if held {
				e.Int(int64(o.ownerPort))
				e.Int(int64(o.ownerVC))
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
	for p := range r.outLinks {
		if !r.connected(topology.Port(p)) {
			continue
		}
		for dv := 0; dv < r.cfg.VCs; dv++ {
			if r.outVC(topology.Port(p), dv).credits != r.outDepth[p] {
				return false
			}
		}
	}
	return true
}

// appendVC appends input VC slot s.
func (r *Router) appendVC(e *flit.Encoder, s int) {
	vc := &r.vcs[s]
	slots := r.slotsOf(s)
	e.Uint(uint64(vc.buf.Len()))
	for i := 0; i < vc.buf.Len(); i++ {
		ring.At(&vc.buf, slots, i).AppendState(e)
	}
	e.Uint(uint64(vc.stage))
	e.Int(int64(vc.wait))
	e.Uint(uint64(vc.nbr))
	for i, br := range vc.branches() {
		e.Int(int64(br.out))
		e.Set(r.dsts(s, i))
		e.Int(int64(br.vc))
		e.Bool(br.sent)
		e.Set(r.headMD(s, i))
	}
	e.Int(int64(vc.class))
	for k := range reduce.NumKinds {
		held := -1
		if vc.flags&loadBit(k) != 0 {
			held = r.cold.stations[k].HeldIndex(s)
		}
		e.Int(int64(held))
	}
}

// LoadState replaces the router's state with the absolute encoding
// AppendState wrote, bounds-checking every port, VC, stage, arbiter pointer
// and station index it reads. Buffered flits are acquired from the router's
// pool; the stations keep the owner construction wired, and the VCs' Load
// signals re-link their reservations by queue index (reduce.Station.Hold).
// A branch's head set must be none or its destination set, the same on
// every branch of a VC: the router keeps one set per branch. The occupancy
// counters and slot masks are recomputed.
func (r *Router) LoadState(d *flit.Decoder) error {
	for _, c := range r.counters() {
		c.Set(d.Uint())
	}
	r.clockTies = d.Uint()
	for k := range r.cold.stations {
		r.cold.stations[k].LoadState(d)
	}
	for p := 0; p < topology.NumPorts; p++ {
		r.saInputArb[p].next = uint8(d.IntRange(0, int(r.saInputArb[p].n)-1, "SA input pointer"))
		r.saOutputArb[p].next = uint8(d.IntRange(0, int(r.saOutputArb[p].n)-1, "SA output pointer"))
	}
	r.buffered, r.loads, r.vaPending, r.active = 0, 0, 0, 0
	r.occMask, r.vaMask, r.actMask, r.loadMask = [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}
	for s := range r.vcs {
		ring.Clear(&r.vcs[s].buf, r.slotsOf(s))
		r.vcs[s] = inputVC{}
	}
	for i := range r.cold.sets {
		r.cold.sets[i] = vcSets{slot: -1}
	}
	rest := d.Bool()
	held := !rest && d.Bool()
	nv := r.cfg.VCs
	for p := 0; p < topology.NumPorts; p++ {
		var busy uint64
		if !rest {
			if busy = d.Uint(); busy>>nv != 0 {
				d.Failf("input %s busy mask %#x beyond its %d VCs", topology.Port(p), busy, nv)
				busy = 0
			}
		}
		for m := busy; m != 0; m &= m - 1 {
			r.loadVC(d, p, bits.TrailingZeros64(m))
		}
		if !r.connected(topology.Port(p)) {
			continue
		}
		for dv := 0; dv < nv; dv++ {
			o := r.outVC(topology.Port(p), dv)
			*o = outVC{credits: r.outDepth[p], ownerPort: -1, ownerVC: -1}
			if rest {
				continue
			}
			o.credits = uint8(d.IntRange(0, int(r.outDepth[p]), "credit count"))
			if held {
				op := d.IntRange(-1, topology.NumPorts-1, "owner port")
				o.ownerPort = int8(op)
				if op < 0 {
					o.ownerVC = int8(d.IntRange(-1, -1, "owner VC of a free VC"))
				} else {
					o.ownerVC = int8(d.IntRange(0, nv-1, "owner VC"))
				}
			}
		}
	}
	return d.Err()
}

// loadVC reads input VC v of port p, which LoadState has put at rest.
func (r *Router) loadVC(d *flit.Decoder, p, v int) {
	s := r.slot(p, v)
	vc := &r.vcs[s]
	slots := r.slotsOf(s)
	for n := d.UintRange(0, r.cfg.BufferDepth, "buffered flits"); n > 0; n-- {
		f := r.pool.Acquire()
		if f.LoadState(d); f.PT == flit.Multicast && f.MDst == nil {
			d.Failf("buffered multicast flit without destinations")
		}
		ring.PushBack(&vc.buf, slots, f)
		r.buffered++
		r.occMask[p] |= 1 << v
	}
	vc.stage = vcStage(d.UintRange(int(vcIdle), int(vcActive), "VC stage"))
	vc.wait = uint8(d.IntRange(0, max(r.cfg.RCDelay, r.cfg.VADelay), "stage wait"))
	var sets vcSets
	withHead := 0
	for n := d.UintRange(0, topology.NumPorts, "branch count"); n > 0; n-- {
		i := vc.nbr
		out := topology.Port(d.IntRange(0, topology.NumPorts-1, "branch port"))
		if !r.connected(out) {
			d.Failf("branch to unconnected port %s", out)
		}
		sets.dsts[i] = d.Set()
		vc.br[i] = branchState{
			out:  out,
			vc:   int8(d.IntRange(-1, r.cfg.VCs-1, "branch VC")),
			sent: d.Bool(),
		}
		switch md := d.Set(); {
		case md == nil:
		case sets.dsts[i] == nil || !slices.Equal(md.Words(), sets.dsts[i].Words()):
			d.Failf("branch to %s heads a set that is not its destination set", out)
		default:
			withHead++
		}
		vc.nbr++
	}
	if withHead > 0 {
		// Every branch's head copy carries its destination set, the local
		// branch's none.
		for i := range vc.branches() {
			if sets.dsts[i] != nil {
				withHead--
			}
		}
		if withHead != 0 {
			d.Failf("a multicast VC's branches disagree on carrying their sets")
		}
		vc.flags |= multicastHead
	}
	for i := range vc.branches() {
		if sets.dsts[i] != nil {
			*r.takeSets(s) = vcSets{slot: s, dsts: sets.dsts}
			vc.flags |= withSets
			break
		}
	}
	vc.class = uint8(d.IntRange(0, max(r.cfg.VCClasses, 1)-1, "VC class"))
	for k := range reduce.NumKinds {
		if i := int(d.Int()); i >= 0 {
			if !r.cold.stations[k].Hold(i, s) {
				d.Failf("entry %d is not a free reservation of station %d's %d", i, k, r.cold.stations[k].Backlog())
			}
			vc.flags |= loadBit(k)
			r.raiseLoad(p, v)
		}
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
