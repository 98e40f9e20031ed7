package flit

import (
	"errors"
	"fmt"
)

// Field widths of the packet format in Fig. 3(a), in bits. FT distinguishes
// H/B/T in every flit, so a body/tail flit's payload slots share the rest.
const (
	// FTBits encodes the flit type.
	FTBits = 2
	// DefaultFlitBits is the flit width from Table I (98 bits/flit).
	DefaultFlitBits = 98
	// DefaultPayloadBits is the gather payload width from Table I (32 bits).
	DefaultPayloadBits = 32
)

// ErrBadFormat reports an unsatisfiable flit format configuration.
var ErrBadFormat = errors.New("flit: invalid format")

// AccumulateFlits is the fixed length of an accumulate packet: a head flit
// plus one tail flit carrying the running sum. Merging happens in place,
// so the length is independent of how many operands the packet absorbs —
// the wire-level advantage of in-network accumulation over gather packets,
// whose length grows as 1 + ⌈η/slots⌉.
const AccumulateFlits = 2

// Format captures the wire-format arithmetic of the packet layout: how many
// gather payload slots fit in one body/tail flit and how long packets of
// each kind are. It is immutable after creation.
type Format struct {
	slotsPer int
}

// NewFormat computes the format for a network of numNodes nodes with the
// given flit and payload widths.
func NewFormat(flitBits, payloadBits, numNodes int) (*Format, error) {
	if flitBits <= 0 || payloadBits <= 0 || numNodes <= 0 {
		return nil, fmt.Errorf("%w: flitBits=%d payloadBits=%d nodes=%d",
			ErrBadFormat, flitBits, payloadBits, numNodes)
	}
	slots := (flitBits - FTBits) / payloadBits
	if slots < 1 {
		return nil, fmt.Errorf("%w: payload (%d bits) does not fit in a %d-bit flit",
			ErrBadFormat, payloadBits, flitBits)
	}
	return &Format{slotsPer: slots}, nil
}

// MustFormat is NewFormat for statically known-good parameters.
func MustFormat(flitBits, payloadBits, numNodes int) *Format {
	f, err := NewFormat(flitBits, payloadBits, numNodes)
	if err != nil {
		panic(err)
	}
	return f
}

// SlotsPerFlit returns how many gather payload slots one body/tail flit
// carries: the flit width minus the FT field, divided by the payload width.
// For the Table I configuration (98-bit flits, 32-bit payloads) this is 3.
func (f *Format) SlotsPerFlit() int { return f.slotsPer }

// GatherFlits returns the flit count of a gather packet able to collect
// capacity payloads: one head flit plus enough body/tail flits to hold the
// slots.
//
// With Table I parameters and capacity = 8 (one 8-wide mesh row) this is
// 1 + ceil(8/3) = 4 flits, matching Table I's "Gather: 4 flits/packet";
// capacity 16 (a 16-wide row) gives 7 flits.
func (f *Format) GatherFlits(capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	return 1 + (capacity+f.slotsPer-1)/f.slotsPer
}
