package router

import (
	"fmt"
	"math/bits"

	"gathernoc/internal/flit"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// BranchSnapshot serializes one output branch of a packet holding an
// input VC. Destination sets are flattened to member lists; HasDsts and
// HasHeadMD distinguish an absent set (unicast branches) from a present
// one, since the two drive different code paths in flitForBranch.
type BranchSnapshot struct {
	Out       topology.Port
	HasDsts   bool
	Dsts      []topology.NodeID `json:",omitempty"`
	VC        int
	Sent      bool
	HasHeadMD bool
	HeadMD    []topology.NodeID `json:",omitempty"`
}

// VCSnapshot serializes one input virtual channel: buffered flits in
// order, pipeline stage, branch table, and the station entries the VC
// holds reservations on (encoded as queue indices; -1 = none).
type VCSnapshot struct {
	Flits       []flit.State `json:",omitempty"`
	Stage       uint8
	Wait        int
	Branches    []BranchSnapshot `json:",omitempty"`
	VCClass     int
	GatherEntry int
	ReduceEntry int
}

// OutputSnapshot serializes one connected output port's credit counters
// and downstream-VC ownership table. Unconnected ports serialize empty.
type OutputSnapshot struct {
	Credits   []int `json:",omitempty"`
	OwnerPort []int `json:",omitempty"`
	OwnerVC   []int `json:",omitempty"`
}

// State is the complete mutable state of one router. Wiring (links,
// routing function, stations' capacities) is rebuilt by construction;
// the occupancy counters (buffered/loads/vaPending/active) and slot masks
// are derived and recomputed on restore.
type State struct {
	Inputs        [][]VCSnapshot
	Outputs       []OutputSnapshot
	GatherStation []reduce.EntrySnapshot `json:",omitempty"`
	ReduceStation []reduce.EntrySnapshot `json:",omitempty"`
	SAInputNext   []int
	SAOutputNext  []int
	Counters      Counters
}

// CaptureState serializes the router's mutable state.
func (r *Router) CaptureState() State {
	s := State{
		GatherStation: r.station.CaptureEntries(),
		ReduceStation: r.rstation.CaptureEntries(),
		Counters:      r.Counters,
	}
	s.Inputs = make([][]VCSnapshot, topology.NumPorts)
	s.Outputs = make([]OutputSnapshot, topology.NumPorts)
	s.SAInputNext = make([]int, topology.NumPorts)
	s.SAOutputNext = make([]int, topology.NumPorts)
	for p := 0; p < topology.NumPorts; p++ {
		s.SAInputNext[p] = r.saInputArb[p].next
		s.SAOutputNext[p] = r.saOutputArb[p].next
		vcs := make([]VCSnapshot, len(r.inputs[p]))
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			vs := VCSnapshot{
				Stage:       uint8(vc.stage),
				Wait:        vc.wait,
				VCClass:     vc.vcClass,
				GatherEntry: -1,
				ReduceEntry: -1,
			}
			for i := 0; i < vc.buf.Len(); i++ {
				vs.Flits = append(vs.Flits, flit.CaptureFlit(vc.buf.At(i)))
			}
			for i := range vc.branches {
				br := &vc.branches[i]
				bs := BranchSnapshot{Out: br.out, VC: br.vc, Sent: br.sent}
				if br.dsts != nil {
					bs.HasDsts = true
					bs.Dsts = br.dsts.Nodes()
				}
				if br.headMD != nil {
					bs.HasHeadMD = true
					bs.HeadMD = br.headMD.Nodes()
				}
				vs.Branches = append(vs.Branches, bs)
			}
			if vc.gatherLoad && vc.gatherEntry != nil {
				vs.GatherEntry = r.station.EntryIndex(vc.gatherEntry)
			}
			if vc.reduceLoad && vc.reduceEntry != nil {
				vs.ReduceEntry = r.rstation.EntryIndex(vc.reduceEntry)
			}
			vcs[v] = vs
		}
		s.Inputs[p] = vcs
		o := &r.outputs[p]
		if o.connected() {
			s.Outputs[p] = OutputSnapshot{
				Credits:   append([]int(nil), o.credits...),
				OwnerPort: append([]int(nil), o.ownerPort...),
				OwnerVC:   append([]int(nil), o.ownerVC...),
			}
		}
	}
	return s
}

// AppendState appends the router's decision state (flit.Encoder): what
// CaptureState captures but the Counters, in the same order, less what the
// router's invariants (CheckInvariants) fix. Only the VCs in a port's
// occupancy, VA and active masks are written, after the masks: every other
// VC is at rest — no flit, idle, no wait, branch or Load — and its class is
// rewritten by route computation before VA reads it. With no VC in VA or
// active no downstream VC is owned, so the owners are written only while
// one is held. A router with no flit, no owned VC and every credit home —
// most of a fabric when a round opens — is its stations, its SA pointers
// and one byte. Lengths the construction fixes are not written.
func (r *Router) AppendState(e *flit.Encoder) {
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

// RestoreState replaces the router's mutable state with the captured
// one. Buffered flits materialize through pool; station entries are
// re-acked through the owning NIC's handlers; the VC-held entry pointers
// are re-linked by queue index. The derived occupancy counters and slot
// masks are recomputed from the restored state.
func (r *Router) RestoreState(s State, pool *flit.Pool, numNodes int, gatherAck, reduceAck reduce.AckFunc) error {
	if len(s.Inputs) != topology.NumPorts || len(s.Outputs) != topology.NumPorts ||
		len(s.SAInputNext) != topology.NumPorts || len(s.SAOutputNext) != topology.NumPorts {
		return fmt.Errorf("router %d: snapshot shape mismatch", r.id)
	}
	r.station.RestoreEntries(s.GatherStation, gatherAck)
	r.rstation.RestoreEntries(s.ReduceStation, reduceAck)
	r.Counters = s.Counters
	r.buffered, r.loads, r.vaPending, r.active = 0, 0, 0, 0
	r.occMask, r.vaMask, r.actMask = [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}, [topology.NumPorts]uint64{}
	for p := 0; p < topology.NumPorts; p++ {
		if len(s.Inputs[p]) != len(r.inputs[p]) {
			return fmt.Errorf("router %d: snapshot has %d VCs on port %d, router has %d",
				r.id, len(s.Inputs[p]), p, len(r.inputs[p]))
		}
		r.saInputArb[p].next = s.SAInputNext[p]
		r.saOutputArb[p].next = s.SAOutputNext[p]
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			vs := s.Inputs[p][v]
			if len(vs.Flits) > r.cfg.BufferDepth {
				return fmt.Errorf("router %d: snapshot overfills input %d vc%d", r.id, p, v)
			}
			vc.buf.Reset()
			for _, fs := range vs.Flits {
				vc.buf.PushBack(fs.Materialize(pool, numNodes))
				r.buffered++
			}
			if len(vs.Flits) > 0 {
				r.occMask[p] |= 1 << v
			}
			vc.stage = vcStage(vs.Stage)
			vc.wait = vs.Wait
			vc.vcClass = vs.VCClass
			vc.branches = vc.branches[:0]
			for _, bs := range vs.Branches {
				br := branchState{out: bs.Out, vc: bs.VC, sent: bs.Sent}
				if bs.HasDsts {
					br.dsts = topology.DestSetOf(numNodes, bs.Dsts...)
				}
				if bs.HasHeadMD {
					br.headMD = topology.DestSetOf(numNodes, bs.HeadMD...)
				}
				vc.branches = append(vc.branches, br)
			}
			vc.gatherLoad, vc.gatherEntry = false, nil
			if vs.GatherEntry >= 0 {
				e := r.station.EntryAt(vs.GatherEntry)
				if e == nil {
					return fmt.Errorf("router %d: snapshot gather entry %d out of range", r.id, vs.GatherEntry)
				}
				vc.gatherEntry = e
				vc.gatherLoad = true
				r.loads++
			}
			vc.reduceLoad, vc.reduceEntry = false, nil
			if vs.ReduceEntry >= 0 {
				e := r.rstation.EntryAt(vs.ReduceEntry)
				if e == nil {
					return fmt.Errorf("router %d: snapshot reduce entry %d out of range", r.id, vs.ReduceEntry)
				}
				vc.reduceEntry = e
				vc.reduceLoad = true
				r.loads++
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
		o := &r.outputs[p]
		if !o.connected() {
			continue
		}
		os := s.Outputs[p]
		if len(os.Credits) != len(o.credits) || len(os.OwnerPort) != len(o.ownerPort) || len(os.OwnerVC) != len(o.ownerVC) {
			return fmt.Errorf("router %d: snapshot output %d shape mismatch", r.id, p)
		}
		copy(o.credits, os.Credits)
		copy(o.ownerPort, os.OwnerPort)
		copy(o.ownerVC, os.OwnerVC)
	}
	return nil
}
