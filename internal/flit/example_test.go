package flit_test

import (
	"fmt"

	"gathernoc/internal/flit"
)

// The Table I wire format: 98-bit flits carrying 32-bit gather payloads
// give 3 payload slots per body/tail flit, so a gather packet covering an
// 8-wide mesh row is exactly the paper's 4 flits.
func ExampleFormat_GatherFlits() {
	f := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 64)
	fmt.Println("slots per flit:", f.SlotsPerFlit())
	fmt.Println("8-wide row:    ", f.GatherFlits(8), "flits")
	fmt.Println("16-wide row:   ", f.GatherFlits(16), "flits")
	// Output:
	// slots per flit: 3
	// 8-wide row:     4 flits
	// 16-wide row:    7 flits
}

// A gather packet is born carrying its initiator's payload, with ASpace
// counting the remaining slots for intermediate PEs (Fig. 3a).
func ExamplePacketizeInto() {
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 64)
	own := &flit.Payload{Seq: 1, Src: 8, Dst: 64, Value: 42, Bits: 32}
	flits, err := flit.PacketizeInto(nil, flit.Packet{
		ID: 7, PT: flit.Gather, Src: 8, Dst: 64,
		Flits:          format.GatherFlits(8),
		GatherCapacity: 8,
		Carried:        own,
	}, format, nil)

	if err != nil {
		fmt.Println(err)
		return
	}
	for _, f := range flits {
		fmt.Printf("%s ASpace=%d payloads=%d\n", f.Type, f.ASpace, len(f.Payloads))
	}
	// Output:
	// H ASpace=7 payloads=0
	// B ASpace=0 payloads=1
	// B ASpace=0 payloads=0
	// T ASpace=0 payloads=0
}
