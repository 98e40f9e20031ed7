package flit

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// Encoder appends the state of a fabric, component by component, to one
// byte buffer. Every stateful component has one AppendState writing to it
// and one LoadState reading the same fields back through a Decoder, so
// checkpoint, fork, reset and the periodicity proof share one description
// of the state. Integers are varints, lists carry their length, and the
// fields of a component come in a fixed order, so two encodings are equal
// only if the states are.
//
// Absolute mode (ResetAbsolute), for checkpoint, fork and reset, writes
// every value as it is, statistics, payload values and fault state
// included. Relative mode (Reset), for the periodicity proof
// (noc.Network.AppendState), is compared byte for byte and never decoded.
// It leaves statistics, payload values (the fabric adds them up but never
// branches on them) and fault state (the proof covers fault-free fabrics
// only) out, and normalizes two kinds of value:
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
//
// An Encoder allocates nothing once its buffer and name tables have grown
// to a state's size; keep one and Reset it for every encoding.
type Encoder struct {
	buf      []byte
	base     int64
	now      int64
	relative bool
	names    [numNameKinds][]uint64
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

// Reset starts a new relative encoding appended to buf, with cycles written
// relative to base, and forgets the identifiers seen so far. The clock
// (SetNow) goes back to cycle 0.
func (e *Encoder) Reset(buf []byte, base int64) {
	e.buf, e.base, e.now, e.relative = buf, base, 0, true
	for k := range e.names {
		e.names[k] = e.names[k][:0]
	}
}

// ResetAbsolute starts a new absolute encoding appended to buf.
func (e *Encoder) ResetAbsolute(buf []byte) {
	e.Reset(buf, 0)
	e.relative = false
}

// SetNow sets the clock of the encoding: the engine cycle of the boundary
// the state is taken at. A component that keeps a cycle narrowed relative
// to the clock (link.Link's due cycles) widens it with Now before writing
// it.
func (e *Encoder) SetNow(c int64) { e.now = c }

// Now returns the clock SetNow set.
func (e *Encoder) Now() int64 { return e.now }

// Relative reports whether the encoding is the periodicity proof's, which
// leaves statistics, payload values and fault state out.
func (e *Encoder) Relative() bool { return e.relative }

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

// Float appends a float by its bits, byte-reversed so that the small whole
// numbers a latency sample holds take a few bytes.
func (e *Encoder) Float(v float64) { e.Uint(bits.ReverseBytes64(math.Float64bits(v))) }

// Sample appends a sample's observations in insertion order.
func (e *Encoder) Sample(s *stats.Sample) {
	e.Uint(uint64(s.N()))
	s.Each(e.Float)
}

// Cycle appends an absolute cycle: as it is, or in relative mode relative to
// the base (sim.Never as its own value).
func (e *Encoder) Cycle(c int64) {
	if !e.relative {
		e.Int(c)
		return
	}
	if c == never {
		e.Uint(0)
		return
	}
	// Zig-zag, then shifted past the 0 that stands for never.
	d := c - e.base
	e.Uint(uint64(d<<1^d>>63) + 1)
}

// Until appends a cycle a component waits until, or last acted in, that
// it only ever compares with a cycle it is evaluated in. A relative
// encoding is taken at the boundary after cycle base, so no evaluation is
// left at or before base+1 and every such cycle is written as base+1.
func (e *Encoder) Until(c int64) {
	if e.relative {
		c = max(c, e.base+1)
	}
	e.Cycle(c)
}

// Name appends identifier v of kind k: as it is, or in relative mode as the
// index of its first appearance in this encoding.
func (e *Encoder) Name(k NameKind, v uint64) {
	if !e.relative {
		e.Uint(v)
		return
	}
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

// Decoder reads an absolute encoding back (LoadState), checking what it
// reads: a list length against the bytes left, a node id against the
// fabric's, a bounded value against its bound. The first failure sticks:
// later reads return zero, and Err reports it, so a LoadState reads on and
// looks once at the end. A Decoder allocates nothing but the sets, flit
// payloads and samples it decodes.
type Decoder struct {
	buf []byte
	now int64
	// nodes is the fabric's processing-node count, the width of its
	// destination sets; endpoints counts nodes and edge sinks, the ids a
	// destination may name.
	nodes, endpoints int
	err              error
}

// Reset starts decoding buf, written by a fabric of nodes processing nodes
// and endpoints endpoints. The clock (SetNow) goes back to cycle 0.
func (d *Decoder) Reset(buf []byte, nodes, endpoints int) {
	d.buf, d.nodes, d.endpoints, d.now, d.err = buf, nodes, endpoints, 0, nil
}

// SetNow sets the clock of the decoding: the engine cycle the state is
// loaded at, the Encoder's Now when it was written.
func (d *Decoder) SetNow(c int64) { d.now = c }

// Now returns the clock SetNow set.
func (d *Decoder) Now() int64 { return d.now }

// Err returns the first failure, nil if none.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many bytes are left unread.
func (d *Decoder) Remaining() int { return len(d.buf) }

// Failf records a failure unless one is recorded already.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
		d.buf = nil
	}
}

// Uint reads an unsigned integer.
func (d *Decoder) Uint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Failf("state truncated or malformed")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads a signed integer.
func (d *Decoder) Int() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads a flag.
func (d *Decoder) Bool() bool {
	switch d.Uint() {
	case 0:
		return false
	case 1:
		return true
	}
	d.Failf("flag is neither 0 nor 1")
	return false
}

// IntRange reads a signed integer in [lo, hi]; what names it in the
// failure.
func (d *Decoder) IntRange(lo, hi int, what string) int { return d.check(d.Int(), lo, hi, what) }

// UintRange reads an unsigned integer in [lo, hi].
func (d *Decoder) UintRange(lo, hi int, what string) int {
	v := d.Uint()
	return d.check(int64(min(v, math.MaxInt64)), lo, hi, what)
}

func (d *Decoder) check(v int64, lo, hi int, what string) int {
	if v < int64(lo) || v > int64(hi) {
		d.Failf("%s %d outside [%d, %d]", what, v, lo, hi)
		return lo
	}
	return int(v)
}

// Len reads a list length: at most the bytes left, as every element takes
// at least one.
func (d *Decoder) Len() int {
	n := d.Uint()
	if n > uint64(len(d.buf)) {
		d.Failf("list of %d overruns the state", n)
		return 0
	}
	return int(n)
}

// PE reads the id of a processing node.
func (d *Decoder) PE(what string) topology.NodeID {
	return topology.NodeID(d.IntRange(0, d.nodes-1, what))
}

// Node reads the id of an endpoint: a processing node or an edge sink.
func (d *Decoder) Node(what string) topology.NodeID {
	return topology.NodeID(d.IntRange(0, d.endpoints-1, what))
}

// Set reads a destination set, nil included.
func (d *Decoder) Set() *topology.DestSet {
	if !d.Bool() {
		return nil
	}
	s := topology.NewDestSet(d.nodes)
	if n := d.Uint(); n != uint64(len(s.Words())) {
		d.Failf("destination set of %d words, want %d", n, len(s.Words()))
		return nil
	}
	for w := range s.Words() {
		for x := d.Uint(); x != 0; x &= x - 1 {
			id := w*64 + bits.TrailingZeros64(x)
			if id >= d.nodes {
				d.Failf("destination %d outside the fabric's %d nodes", id, d.nodes)
				return nil
			}
			s.Add(topology.NodeID(id))
		}
	}
	return s
}

// Float reads a float written by Encoder.Float.
func (d *Decoder) Float() float64 { return math.Float64frombits(bits.ReverseBytes64(d.Uint())) }

// Sample replaces s with the observations written by Encoder.Sample,
// observed again in order so that the sample is the one encoded.
func (d *Decoder) Sample(s *stats.Sample) {
	*s = stats.Sample{}
	for i := d.Len(); i > 0; i-- {
		s.Observe(d.Float())
	}
}

// AppendState appends the flit's fields, the destination set as words.
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

// LoadState replaces the flit's fields with the ones AppendState wrote,
// keeping its payload capacity.
func (f *Flit) LoadState(d *Decoder) {
	payloads := f.Payloads[:0]
	*f = Flit{
		Type:        Type(d.UintRange(int(Head), int(HeadTail), "flit type")),
		PT:          PacketType(d.UintRange(int(Unicast), int(Accumulate), "packet type")),
		PacketID:    d.Uint(),
		Tag:         Tag(d.Uint()),
		Seq:         int(d.Int()),
		PacketFlits: int(d.Int()),
		Src:         d.PE("flit source"),
		Dst:         d.Node("flit destination"),
		MDst:        d.Set(),
		ASpace:      int(d.Int()),
		ReduceID:    d.Uint(),
		SlotCap:     int(d.Int()),
	}
	for i := d.Len(); i > 0; i-- {
		var p Payload
		p.LoadState(d)
		payloads = append(payloads, p)
	}
	f.Payloads = payloads
	f.Corrupted = d.Bool()
	f.TrackOperands = d.Bool()
	f.InjectCycle = d.Int()
	f.NetworkCycle = d.Int()
	f.Hops = int(d.Int())
}

// AppendState appends the payload's fields, its Value in absolute mode
// only.
func (p *Payload) AppendState(e *Encoder) {
	e.Name(SeqName, p.Seq)
	e.Int(int64(p.Src))
	e.Int(int64(p.Dst))
	e.Int(int64(p.Bits))
	e.Cycle(p.ReadyCycle)
	e.Name(ReduceName, p.ReduceID)
	e.Int(int64(p.Ops))
	if !e.relative {
		e.Uint(p.Value)
	}
}

// LoadState replaces the payload with the one AppendState wrote.
func (p *Payload) LoadState(d *Decoder) {
	*p = Payload{
		Seq:        d.Uint(),
		Src:        d.PE("payload source"),
		Dst:        d.Node("payload destination"),
		Bits:       int(d.Int()),
		ReadyCycle: d.Int(),
		ReduceID:   d.Uint(),
		Ops:        int(d.Int()),
		Value:      d.Uint(),
	}
}
