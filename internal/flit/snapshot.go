package flit

import (
	"encoding/binary"

	"gathernoc/internal/topology"
)

// State is the serialized form of one in-flight flit: every field by
// value, with the multicast destination set flattened to its member list
// (the only pointer a flit carries). Snapshots store flits in State form;
// restore materializes them through the owning network's pool so the
// acquire/release accounting balances exactly as if the flit had lived
// its whole life in the restored network.
type State struct {
	Type          Type
	PT            PacketType
	PacketID      uint64
	Tag           Tag
	Seq           int
	PacketFlits   int
	Src           topology.NodeID
	Dst           topology.NodeID
	MDst          []topology.NodeID `json:",omitempty"`
	ASpace        int
	ReduceID      uint64
	SlotCap       int
	Payloads      []Payload `json:",omitempty"`
	Corrupted     bool
	TrackOperands bool
	InjectCycle   int64
	NetworkCycle  int64
	Hops          int
}

// CaptureFlit serializes f by value.
func CaptureFlit(f *Flit) State {
	s := State{
		Type:          f.Type,
		PT:            f.PT,
		PacketID:      f.PacketID,
		Tag:           f.Tag,
		Seq:           f.Seq,
		PacketFlits:   f.PacketFlits,
		Src:           f.Src,
		Dst:           f.Dst,
		ASpace:        f.ASpace,
		ReduceID:      f.ReduceID,
		SlotCap:       f.SlotCap,
		Corrupted:     f.Corrupted,
		TrackOperands: f.TrackOperands,
		InjectCycle:   f.InjectCycle,
		NetworkCycle:  f.NetworkCycle,
		Hops:          f.Hops,
	}
	if f.MDst != nil {
		s.MDst = f.MDst.Nodes()
	}
	if len(f.Payloads) > 0 {
		s.Payloads = append([]Payload(nil), f.Payloads...)
	}
	return s
}

// Materialize acquires a fresh flit from p and restores the captured
// fields onto it. numNodes sizes the rebuilt multicast destination set.
func (s State) Materialize(p *Pool, numNodes int) *Flit {
	f := p.Acquire()
	payloads := append(f.Payloads[:0], s.Payloads...)
	*f = Flit{
		Type:          s.Type,
		PT:            s.PT,
		PacketID:      s.PacketID,
		Tag:           s.Tag,
		Seq:           s.Seq,
		PacketFlits:   s.PacketFlits,
		Src:           s.Src,
		Dst:           s.Dst,
		ASpace:        s.ASpace,
		ReduceID:      s.ReduceID,
		SlotCap:       s.SlotCap,
		Payloads:      payloads,
		Corrupted:     s.Corrupted,
		TrackOperands: s.TrackOperands,
		InjectCycle:   s.InjectCycle,
		NetworkCycle:  s.NetworkCycle,
		Hops:          s.Hops,
	}
	if len(s.MDst) > 0 {
		f.MDst = topology.DestSetOf(numNodes, s.MDst...)
	}
	return f
}

// Encoder appends the decision state of a fabric, component by component,
// to one byte buffer: the periodicity proof (noc.Network.AppendState)
// compares two such encodings byte for byte. Every component's appender
// sits beside its CaptureState and writes the same fields, less the
// statistics. Integers are varints, lists carry their length, and the
// fields of a component come in a fixed order, so two encodings are equal
// only if the states are. Three kinds of value are written in a normalized
// form:
//
//   - Cycles (Cycle) are written relative to a base cycle, with sim.Never
//     kept apart, so two states a whole number of rounds apart compare
//     equal when everything in them is the same distance from the base.
//     A cycle only compared with the cycle of a later evaluation (Until)
//     reads the same at any point up to the boundary, and is written so.
//   - Identifiers (Name) — packet ids, payload sequence numbers, reduction
//     ids — are written as the order in which each value first appeared
//     in the encoding. The fabric and the round controllers compare them
//     only for equality and draw fresh ones that equal no live value, so
//     two states that differ only by a renaming of identifiers behave alike.
//   - Payload values are left out: the fabric adds them up (accumulate
//     merges) but never branches on them.
//
// An Encoder allocates nothing once its buffer and name tables have grown
// to a state's size; keep one and Reset it for every encoding.
type Encoder struct {
	buf   []byte
	base  int64
	names [numNameKinds][]uint64
}

// NameKind is the namespace of an identifier written with Encoder.Name:
// the same number in two namespaces is two unrelated identifiers.
type NameKind uint8

// Identifier namespaces.
const (
	PacketName NameKind = iota
	SeqName
	ReduceName
	numNameKinds
)

// never is sim.Never, the cycle of a timer that is not armed (flit cannot
// import sim).
const never = 1<<63 - 1

// Reset starts a new encoding appended to buf, with cycles written relative
// to base, and forgets the identifiers seen so far.
func (e *Encoder) Reset(buf []byte, base int64) {
	e.buf, e.base = buf, base
	for k := range e.names {
		e.names[k] = e.names[k][:0]
	}
}

// Bytes returns the encoding so far: the buffer given to Reset with the
// encoding appended.
func (e *Encoder) Bytes() []byte { return e.buf }

// Int appends a signed integer.
func (e *Encoder) Int(v int64) { e.Uint(uint64(v<<1 ^ v>>63)) }

// Uint appends an unsigned integer.
func (e *Encoder) Uint(v uint64) {
	if v < 0x80 {
		e.buf = append(e.buf, byte(v))
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Bool appends a flag.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Cycle appends an absolute cycle relative to the base (sim.Never as its
// own value).
func (e *Encoder) Cycle(c int64) {
	if c == never {
		e.Uint(0)
		return
	}
	// Zig-zag, then shifted past the 0 that stands for never.
	d := c - e.base
	e.Uint(uint64(d<<1^d>>63) + 1)
}

// Until appends a cycle a component waits until, or last acted in, that
// it only ever compares with a cycle it is evaluated in. The encoding is
// taken at the boundary after cycle base, so no evaluation is left at or
// before base+1 and every such cycle is written as base+1.
func (e *Encoder) Until(c int64) { e.Cycle(max(c, e.base+1)) }

// Name appends identifier v of kind k as the index of its first appearance
// in this encoding.
func (e *Encoder) Name(k NameKind, v uint64) {
	seen := e.names[k]
	for i, w := range seen {
		if w == v {
			e.Uint(uint64(i))
			return
		}
	}
	e.names[k] = append(seen, v)
	e.Uint(uint64(len(seen)))
}

// Set appends a destination set, nil included (a nil set and an empty one
// drive different code paths).
func (e *Encoder) Set(s *topology.DestSet) {
	e.Bool(s != nil)
	if s == nil {
		return
	}
	w := s.Words()
	e.Uint(uint64(len(w)))
	for _, x := range w {
		e.Uint(x)
	}
}

// AppendState appends the flit's fields (State's, with the destination set
// as words): identifiers named, timestamps relative to the base.
func (f *Flit) AppendState(e *Encoder) {
	e.Uint(uint64(f.Type))
	e.Uint(uint64(f.PT))
	e.Name(PacketName, f.PacketID)
	e.Uint(uint64(f.Tag))
	e.Int(int64(f.Seq))
	e.Int(int64(f.PacketFlits))
	e.Int(int64(f.Src))
	e.Int(int64(f.Dst))
	e.Set(f.MDst)
	e.Int(int64(f.ASpace))
	e.Name(ReduceName, f.ReduceID)
	e.Int(int64(f.SlotCap))
	e.Uint(uint64(len(f.Payloads)))
	for i := range f.Payloads {
		f.Payloads[i].AppendState(e)
	}
	e.Bool(f.Corrupted)
	e.Bool(f.TrackOperands)
	e.Cycle(f.InjectCycle)
	e.Cycle(f.NetworkCycle)
	e.Int(int64(f.Hops))
}

// AppendState appends the payload's fields but its Value (see Encoder).
func (p *Payload) AppendState(e *Encoder) {
	e.Name(SeqName, p.Seq)
	e.Int(int64(p.Src))
	e.Int(int64(p.Dst))
	e.Int(int64(p.Bits))
	e.Cycle(p.ReadyCycle)
	e.Name(ReduceName, p.ReduceID)
	e.Int(int64(p.Ops))
}
