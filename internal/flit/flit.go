// Package flit defines the wire-level data unit of the NoC and the packet
// format of Fig. 3(a) of the paper: head flits carry flit type (FT), packet
// type (PT), the available-payload-space counter (ASpace), source and
// destination identifiers and the bit-string multicast destination (MDst);
// body and tail flits carry payload slots.
//
// Gather packets reserve ASpace payload slots; intermediate routers
// decrement ASpace as they piggyback their PE's partial-sum payload into a
// passing body/tail flit (Algorithm 1).
package flit

import (
	"fmt"

	"gathernoc/internal/topology"
)

// Type is the FT field: the position of a flit within its packet.
type Type uint8

// Flit types. A single-flit packet is represented as HeadTail.
const (
	Head Type = iota + 1
	Body
	Tail
	HeadTail
)

// String returns the FT mnemonic used in the paper (H/B/T).
func (t Type) String() string {
	switch t {
	case Head:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	case HeadTail:
		return "HT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsHead reports whether the flit opens a packet (Head or HeadTail).
func (t Type) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes a packet (Tail or HeadTail).
func (t Type) IsTail() bool { return t == Tail || t == HeadTail }

// PacketType is the PT field: unicast (U), multicast (M), gather (G) or
// accumulate (A).
type PacketType uint8

// Packet types. Accumulate is the in-network-accumulation (INA) extension:
// instead of appending each PE's payload into its own slot like a gather
// packet, routers fold their local partial sum into the packet's single
// accumulator payload, so the packet length stays constant whatever the
// row width.
const (
	Unicast PacketType = iota + 1
	Multicast
	Gather
	Accumulate
)

// String returns the PT mnemonic (U/M/G from the paper, A for INA).
func (p PacketType) String() string {
	switch p {
	case Unicast:
		return "U"
	case Multicast:
		return "M"
	case Gather:
		return "G"
	case Accumulate:
		return "A"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(p))
	}
}

// Tag identifies the workload job and phase a packet belongs to: job index
// in the high 16 bits, phase index in the low 16. The zero Tag means
// "untagged" (legacy single-workload traffic, background noise), and every
// tag-aware code path treats it exactly like the pre-tag simulator, so
// tagging is invisible unless a workload scheduler assigns tags.
type Tag uint32

// NewTag packs a job and phase index into a Tag. Indices outside
// [0, 65535] are truncated; the workload layer enforces tighter bounds
// (job and phase < 256) so tags also fit the ReduceID encoding.
func NewTag(job, phase int) Tag {
	return Tag(uint32(uint16(job))<<16 | uint32(uint16(phase)))
}

// Job returns the tag's job index.
func (t Tag) Job() int { return int(t >> 16) }

// Phase returns the tag's phase index within the job.
func (t Tag) Phase() int { return int(t & 0xFFFF) }

// String renders "job/phase" for debug output.
func (t Tag) String() string { return fmt.Sprintf("j%d/p%d", t.Job(), t.Phase()) }

// TaggedReduceID encodes a reduction identifier carrying its workload tag:
// job in bits 56..63, phase in bits 48..55, row in bits 32..47 and the
// round number in the low 32 bits. The zero tag reproduces the historic
// row<<32|round encoding bit for bit, which keeps untagged runs (and their
// goldens) unchanged. Job and phase must be < 256 (the workload scheduler
// enforces this); rows must fit 16 bits.
func TaggedReduceID(tag Tag, row int, round uint32) uint64 {
	return uint64(uint8(tag.Job()))<<56 | uint64(uint8(tag.Phase()))<<48 |
		uint64(uint16(row))<<32 | uint64(round)
}

// ReduceIDTag extracts the workload tag from a TaggedReduceID.
func ReduceIDTag(id uint64) Tag {
	return NewTag(int(id>>56), int((id>>48)&0xFF))
}

// ReduceIDRow extracts the row from a TaggedReduceID.
func ReduceIDRow(id uint64) int { return int((id >> 32) & 0xFFFF) }

// ReduceIDRound extracts the round number from a TaggedReduceID.
func ReduceIDRound(id uint64) uint32 { return uint32(id) }

// Payload is one gather payload: a PE's partial-convolution result tagged
// with its producer and its destination (the global-buffer port). Value is
// carried end to end so tests can verify no payload is lost, duplicated or
// corrupted.
type Payload struct {
	// Seq uniquely identifies the payload within a run.
	Seq uint64
	// Src is the PE that produced the payload.
	Src topology.NodeID
	// Dst is the node whose local port delivers to the global buffer.
	Dst topology.NodeID
	// Bits is the wire size of the payload (32 in Table I).
	Bits int
	// Value is the synthetic partial-sum the payload carries.
	Value uint64
	// ReadyCycle is the cycle the producing PE finished its MAC; used for
	// per-payload collection-latency statistics.
	ReadyCycle int64
	// ReduceID tags the reduction this payload belongs to (accumulation
	// traffic only): operands with the same ReduceID may be folded into
	// one another, operands with different ReduceIDs never mix.
	ReduceID uint64
	// Ops counts the operands folded into this payload: 1 for a plain
	// operand, the merge count plus one for an accumulator that absorbed
	// partial sums en route. Gather payloads leave it 0 (one operand).
	Ops int
}

// OpsCount returns the number of operands this payload represents,
// treating the zero value (pre-INA payloads) as a single operand.
func (p Payload) OpsCount() int {
	if p.Ops < 1 {
		return 1
	}
	return p.Ops
}

// Flit is a single flow-control unit. Flits are created by the network
// interface, traverse router buffers by pointer, and are never shared
// between two buffers at once, so no locking is needed.
type Flit struct {
	// Type is the FT field.
	Type Type
	// PT is the packet type field.
	PT PacketType

	// PacketID groups the flits of one packet.
	PacketID uint64
	// Tag is the workload job/phase the packet belongs to (zero for
	// untagged traffic); ejection-side accounting breaks stats down by it.
	Tag Tag
	// Seq is the flit's position within its packet, 0-based.
	Seq int
	// PacketFlits is the total flit count of the packet.
	PacketFlits int

	// Src is the injecting node.
	Src topology.NodeID
	// Dst is the unicast/gather destination.
	Dst topology.NodeID
	// MDst is the multicast destination set (nil unless PT == Multicast).
	MDst *topology.DestSet

	// ASpace is the available payload space counter (head flits of gather
	// and accumulate packets only). For gather packets it counts remaining
	// payload slots, each PayloadBits wide, across the packet's body/tail
	// flits; for accumulate packets it counts the remaining merge budget
	// (merged operands occupy no wire space, but the budget bounds how many
	// reservations the header hands out).
	ASpace int
	// ReduceID is the reduction the packet serves (head flits of
	// accumulate packets only); routers only fold local operands tagged
	// with the same ReduceID into the packet.
	ReduceID uint64
	// SlotCap is the number of payload slots this body/tail flit offers.
	SlotCap int
	// Payloads are the gather payloads uploaded into this flit so far
	// (len(Payloads) <= SlotCap).
	Payloads []Payload

	// Corrupted marks a flit damaged in flight by fault injection. The
	// flit routes and consumes bandwidth normally; the ejector discards
	// the whole reassembled packet (the receiver CRC model), leaving
	// recovery to end-to-end retransmission.
	Corrupted bool
	// TrackOperands, on accumulate packets, keeps merged operands as
	// separate payload entries instead of folding them into the
	// accumulator (wire-length accounting is unchanged — the packet stays
	// AccumulateFlits long). The end-to-end reliability layer needs
	// per-operand identity at the ejector so retransmitted duplicates can
	// be suppressed exactly; summing the entries reproduces the folded
	// value bit for bit (wrap-around uint64 addition is associative).
	TrackOperands bool

	// InjectCycle is when the head entered the source injection queue.
	InjectCycle int64
	// NetworkCycle is when the flit first left the NIC into the router.
	NetworkCycle int64
	// Hops counts the routers this flit has entered; for minimal routing
	// on a mesh it ends at Manhattan distance + 1 (source router
	// included).
	Hops int
}

// IsHead reports whether the flit opens its packet.
func (f *Flit) IsHead() bool { return f.Type.IsHead() }

// IsTail reports whether the flit closes its packet.
func (f *Flit) IsTail() bool { return f.Type.IsTail() }

// FreeSlots returns the number of payload slots still available in this
// body/tail flit.
func (f *Flit) FreeSlots() int { return f.SlotCap - len(f.Payloads) }

// AddPayload uploads p into the flit. It returns false without modifying
// the flit when no slot is free.
func (f *Flit) AddPayload(p Payload) bool {
	if f.FreeSlots() <= 0 {
		return false
	}
	f.appendPayload(p)
	return true
}

// appendPayload appends p to Payloads. A full list grows straight to
// SlotCap (and doubles past it, for tracked operands) rather than from
// its old capacity: a pooled flit whose list last held a one-slot tail
// takes a whole gather body with one allocation.
func (f *Flit) appendPayload(p Payload) {
	if n := len(f.Payloads); n == cap(f.Payloads) {
		grown := make([]Payload, n, max(f.SlotCap, 2*n, 1))
		copy(grown, f.Payloads)
		f.Payloads = grown
	}
	f.Payloads = append(f.Payloads, p)
}

// MergePayload folds operand p into the flit's accumulator payload: the
// operand's value is added (exact wrap-around uint64 arithmetic, matching
// the software reduction oracle) and its operand count absorbed. It
// returns false without modifying the flit when the flit carries no
// accumulator or the reduction IDs differ.
//
// With TrackOperands set (reliability-enabled fabrics) the operand is
// appended as its own payload entry instead — same sum, same wire length,
// but each operand keeps its Seq so the ejector can deduplicate
// retransmissions.
func (f *Flit) MergePayload(p Payload) bool {
	if len(f.Payloads) == 0 {
		return false
	}
	if f.Payloads[0].ReduceID != p.ReduceID {
		return false
	}
	if f.TrackOperands {
		p.Ops = p.OpsCount()
		f.appendPayload(p)
		return true
	}
	acc := &f.Payloads[0]
	acc.Value += p.Value
	acc.Ops = acc.OpsCount() + p.OpsCount()
	return true
}

// String renders a compact debug form, e.g. "pkt42[G] H 0/4 3->7".
func (f *Flit) String() string {
	return fmt.Sprintf("pkt%d[%s] %s %d/%d %d->%d",
		f.PacketID, f.PT, f.Type, f.Seq, f.PacketFlits, f.Src, f.Dst)
}
