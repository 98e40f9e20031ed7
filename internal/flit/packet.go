package flit

import (
	"fmt"

	"gathernoc/internal/topology"
)

// Packet is a logical message before packetization into flits.
type Packet struct {
	// ID must be unique per network run; the NIC allocates it.
	ID uint64
	// Tag is the workload job/phase the packet belongs to (zero for
	// untagged traffic); PacketizeInto stamps it onto every flit.
	Tag Tag
	// PT selects unicast, multicast or gather.
	PT PacketType
	// Src and Dst are the endpoints (Dst ignored for multicast).
	Src topology.NodeID
	Dst topology.NodeID
	// MDst is the multicast destination set (multicast only).
	MDst *topology.DestSet
	// Flits is the total length in flits, including the head.
	Flits int
	// GatherCapacity is the payload capacity η of a gather packet, or the
	// merge budget of an accumulate packet.
	GatherCapacity int
	// ReduceID tags the reduction an accumulate packet serves.
	ReduceID uint64
	// Carried is the payload the source itself contributes (nil for an
	// empty gather packet; required for accumulate packets, whose body
	// flit carries the running sum).
	Carried *Payload
	// TrackOperands keeps merged operands of an accumulate packet as
	// separate payload entries for end-to-end reliability (see
	// Flit.TrackOperands). Set by reliability-enabled NICs only.
	TrackOperands bool
	// InjectCycle is when the packet entered the injection queue.
	InjectCycle int64
}

// PacketizeInto expands the packet into its flit sequence according to the
// format: a head flit carrying the routing fields, then body flits, then a
// tail flit, each body/tail flit exposing fmt.SlotsPerFlit() payload slots
// for gather packets. Packets of length 1 become a single HeadTail flit.
//
// For gather packets the head's ASpace starts at GatherCapacity and the
// source's own payload (if any) is pre-loaded into the first body flit with
// ASpace decremented accordingly, mirroring a PE that initiates a gather
// packet already carrying its result.
//
// Unicast packets may also carry a single payload (in the tail flit): the
// repetitive-unicast baseline transports one partial-sum result per packet,
// and carrying it lets integrity checks cover both collection schemes.
//
// Accumulate packets (the INA extension) are always two flits: a head
// carrying the merge budget in ASpace and the reduction ID, and one tail
// flit whose single payload slot holds the running sum. Routers fold local
// operands into that payload in place, so the length never grows with the
// number of merged operands.
//
// Flits are acquired from pool (heap-allocated when pool is nil) and
// appended to dst, whose backing array is reused across packets (pass
// dst[:0]), so the simulator's hot path allocates nothing. On error,
// acquired flits are returned to the pool and dst's length is unchanged.
func PacketizeInto(dst []*Flit, p Packet, format *Format, pool *Pool) ([]*Flit, error) {
	if p.Flits < 1 {
		return nil, fmt.Errorf("%w: packet %d has %d flits", ErrBadFormat, p.ID, p.Flits)
	}
	if p.PT == Gather && p.Flits < 2 {
		return nil, fmt.Errorf("%w: gather packet %d needs a head and at least one payload flit", ErrBadFormat, p.ID)
	}
	if p.PT == Accumulate {
		if p.Flits != AccumulateFlits {
			return nil, fmt.Errorf("%w: accumulate packet %d must be %d flits, got %d",
				ErrBadFormat, p.ID, AccumulateFlits, p.Flits)
		}
		if p.Carried == nil {
			return nil, fmt.Errorf("%w: accumulate packet %d needs its accumulator payload", ErrBadFormat, p.ID)
		}
	}
	base := len(dst)
	flits := dst
	for i := 0; i < p.Flits; i++ {
		f := pool.Acquire()
		f.PT = p.PT
		f.PacketID = p.ID
		f.Tag = p.Tag
		f.Seq = i
		f.PacketFlits = p.Flits
		f.Src = p.Src
		f.Dst = p.Dst
		f.MDst = p.MDst
		f.TrackOperands = p.TrackOperands
		f.InjectCycle = p.InjectCycle
		switch {
		case p.Flits == 1:
			f.Type = HeadTail
		case i == 0:
			f.Type = Head
		case i == p.Flits-1:
			f.Type = Tail
		default:
			f.Type = Body
		}
		if p.PT == Gather && !f.Type.IsHead() {
			f.SlotCap = format.SlotsPerFlit()
		}
		flits = append(flits, f)
	}
	pkt := flits[base:]
	switch {
	case p.PT == Gather:
		pkt[0].ASpace = p.GatherCapacity
		if p.Carried != nil {
			if !pkt[1].AddPayload(*p.Carried) {
				for _, f := range pkt {
					pool.Release(f)
				}
				return nil, fmt.Errorf("%w: gather packet %d cannot carry its own payload", ErrBadFormat, p.ID)
			}
			pkt[0].ASpace--
		}
	case p.PT == Accumulate:
		// The source's own operand seeds the accumulator and consumes one
		// unit of merge budget, mirroring the gather initiator path.
		pkt[0].ASpace = p.GatherCapacity - 1
		pkt[0].ReduceID = p.ReduceID
		acc := *p.Carried
		acc.ReduceID = p.ReduceID
		acc.Ops = acc.OpsCount()
		pkt[1].SlotCap = 1
		pkt[1].AddPayload(acc)
	case p.Carried != nil:
		last := pkt[len(pkt)-1]
		last.SlotCap = 1
		last.AddPayload(*p.Carried)
	}
	return flits, nil
}
