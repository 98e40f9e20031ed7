package flit

import (
	"bytes"
	"errors"
	"math/bits"
	"testing"
	"testing/quick"

	"gathernoc/internal/topology"
)

func TestTypePredicates(t *testing.T) {
	tests := []struct {
		ft       Type
		head     bool
		tail     bool
		mnemonic string
	}{
		{Head, true, false, "H"},
		{Body, false, false, "B"},
		{Tail, false, true, "T"},
		{HeadTail, true, true, "HT"},
	}
	for _, tt := range tests {
		if tt.ft.IsHead() != tt.head || tt.ft.IsTail() != tt.tail {
			t.Errorf("%s: IsHead=%v IsTail=%v, want %v/%v",
				tt.mnemonic, tt.ft.IsHead(), tt.ft.IsTail(), tt.head, tt.tail)
		}
		if tt.ft.String() != tt.mnemonic {
			t.Errorf("String() = %q, want %q", tt.ft.String(), tt.mnemonic)
		}
	}
}

func TestPacketTypeString(t *testing.T) {
	tests := []struct {
		pt   PacketType
		want string
	}{
		{Unicast, "U"}, {Multicast, "M"}, {Gather, "G"},
	}
	for _, tt := range tests {
		if got := tt.pt.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestFormatTableI(t *testing.T) {
	// Table I: 98-bit flits, 32-bit gather payloads, 8x8 mesh.
	f := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	if got := f.SlotsPerFlit(); got != 3 {
		t.Errorf("SlotsPerFlit = %d, want 3", got)
	}
	// Table I: "Gather: 4 flits/packet" for a full 8-wide row.
	if got := f.GatherFlits(8); got != 4 {
		t.Errorf("GatherFlits(8) = %d, want 4", got)
	}
	// A 16-wide row needs 1 + ceil(16/3) = 7 flits.
	if got := f.GatherFlits(16); got != 7 {
		t.Errorf("GatherFlits(16) = %d, want 7", got)
	}
}

func TestFormatRejectsOversizedPayload(t *testing.T) {
	if _, err := NewFormat(16, 32, 64); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
	if _, err := NewFormat(0, 32, 64); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestFormatHeadOverheadFitsTableI(t *testing.T) {
	// FT(2)+PT(2)+ASpace(4 for max 8)+Src(6)+Dst(6) = 20 bits on an 8x8
	// mesh; with the 64-bit MDst bit-string that is 84 <= 98, so the
	// published format is realizable.
	const ptBits = 2 // U/M/G
	nodeBits := bits.Len(64 - 1)
	aspaceBits := bits.Len(8)
	if got := FTBits + ptBits + aspaceBits + 2*nodeBits; got != 20 || got+64 > DefaultFlitBits {
		t.Errorf("head fields need %d+64 bits, want 20+64 within the %d-bit flit",
			got, DefaultFlitBits)
	}
}

func TestGatherFlitsMinimumCapacity(t *testing.T) {
	f := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	if got := f.GatherFlits(0); got != 2 {
		t.Errorf("GatherFlits(0) = %d, want 2 (head+one payload flit)", got)
	}
}

// Property: gather packet length grows monotonically with capacity and
// always provides at least the requested slots.
func TestGatherFlitsProperty(t *testing.T) {
	f := MustFormat(DefaultFlitBits, DefaultPayloadBits, 256)
	fn := func(capRaw uint8) bool {
		capacity := int(capRaw)%64 + 1
		n := f.GatherFlits(capacity)
		slots := (n - 1) * f.SlotsPerFlit()
		return slots >= capacity && slots-capacity < f.SlotsPerFlit()
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestAddPayloadRespectsSlotCap(t *testing.T) {
	fl := &Flit{Type: Body, SlotCap: 2}
	if !fl.AddPayload(Payload{Seq: 1}) || !fl.AddPayload(Payload{Seq: 2}) {
		t.Fatal("payloads rejected despite free slots")
	}
	if fl.AddPayload(Payload{Seq: 3}) {
		t.Error("payload accepted beyond SlotCap")
	}
	if fl.FreeSlots() != 0 {
		t.Errorf("FreeSlots = %d, want 0", fl.FreeSlots())
	}
}

func TestPacketizeUnicast(t *testing.T) {
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	flits, err := PacketizeInto(nil, Packet{
		ID: 7, PT: Unicast, Src: 3, Dst: 12, Flits: 2, InjectCycle: 5,
	}, format, nil)

	if err != nil {
		t.Fatal(err)
	}
	if len(flits) != 2 {
		t.Fatalf("len = %d, want 2", len(flits))
	}
	if flits[0].Type != Head || flits[1].Type != Tail {
		t.Errorf("types = %s,%s, want H,T", flits[0].Type, flits[1].Type)
	}
	for i, f := range flits {
		if f.PacketID != 7 || f.Src != 3 || f.Dst != 12 || f.Seq != i ||
			f.PacketFlits != 2 || f.InjectCycle != 5 {
			t.Errorf("flit %d fields wrong: %+v", i, f)
		}
		if f.SlotCap != 0 {
			t.Errorf("unicast flit %d has payload slots", i)
		}
	}
}

func TestPacketizeSingleFlit(t *testing.T) {
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	flits, err := PacketizeInto(nil, Packet{ID: 1, PT: Unicast, Flits: 1}, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(flits) != 1 || flits[0].Type != HeadTail {
		t.Fatalf("got %v", flits)
	}
}

func TestPacketizeGatherCarriesOwnPayload(t *testing.T) {
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	own := Payload{Seq: 99, Src: 8, Dst: 15, Bits: 32, Value: 42}
	flits, err := PacketizeInto(nil, Packet{
		ID: 2, PT: Gather, Src: 8, Dst: 15, Flits: format.GatherFlits(8),
		GatherCapacity: 8, Carried: &own,
	}, format, nil)

	if err != nil {
		t.Fatal(err)
	}
	if len(flits) != 4 {
		t.Fatalf("len = %d, want 4", len(flits))
	}
	if flits[0].ASpace != 7 {
		t.Errorf("ASpace = %d, want 7 (capacity 8 minus own payload)", flits[0].ASpace)
	}
	if len(flits[1].Payloads) != 1 || flits[1].Payloads[0].Value != 42 {
		t.Errorf("own payload not pre-loaded: %+v", flits[1].Payloads)
	}
	for _, f := range flits[1:] {
		if f.SlotCap != format.SlotsPerFlit() {
			t.Errorf("flit %d SlotCap = %d, want %d", f.Seq, f.SlotCap, format.SlotsPerFlit())
		}
	}
}

func TestPacketizeRejectsInvalid(t *testing.T) {
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	if _, err := PacketizeInto(nil, Packet{ID: 1, PT: Unicast, Flits: 0}, format, nil); err == nil {
		t.Error("zero-flit packet accepted")
	}
	if _, err := PacketizeInto(nil, Packet{ID: 1, PT: Gather, Flits: 1}, format, nil); err == nil {
		t.Error("single-flit gather packet accepted")
	}
}

func TestPacketizeMulticastKeepsMDst(t *testing.T) {
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	set := topology.DestSetOf(64, 1, 2, 3)
	flits, err := PacketizeInto(nil, Packet{ID: 3, PT: Multicast, Src: 0, MDst: set, Flits: 2}, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flits {
		if f.MDst == nil || f.MDst.Len() != 3 {
			t.Errorf("flit %d MDst = %v", f.Seq, f.MDst)
		}
	}
}

func TestFlitString(t *testing.T) {
	f := &Flit{Type: Head, PT: Gather, PacketID: 42, Seq: 0, PacketFlits: 4, Src: 3, Dst: 7}
	if got := f.String(); got != "pkt42[G] H 0/4 3->7" {
		t.Errorf("String() = %q", got)
	}
}

func TestPacketizeAccumulate(t *testing.T) {
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	own := Payload{Seq: 1, Src: 3, Dst: 9, Value: 42}
	flits, err := PacketizeInto(nil, Packet{
		ID: 5, PT: Accumulate, Src: 3, Dst: 9,
		Flits: AccumulateFlits, GatherCapacity: 8, ReduceID: 77, Carried: &own,
	}, format, nil)

	if err != nil {
		t.Fatal(err)
	}
	if len(flits) != 2 {
		t.Fatalf("accumulate packet has %d flits, want 2", len(flits))
	}
	head, tail := flits[0], flits[1]
	if head.Type != Head || tail.Type != Tail {
		t.Errorf("types = %s/%s, want H/T", head.Type, tail.Type)
	}
	// Own operand consumes one unit of the merge budget.
	if head.ASpace != 7 {
		t.Errorf("ASpace = %d, want 7", head.ASpace)
	}
	if head.ReduceID != 77 {
		t.Errorf("head ReduceID = %d, want 77", head.ReduceID)
	}
	if len(tail.Payloads) != 1 {
		t.Fatalf("accumulator payloads = %d, want 1", len(tail.Payloads))
	}
	acc := tail.Payloads[0]
	if acc.ReduceID != 77 || acc.Value != 42 || acc.Ops != 1 {
		t.Errorf("accumulator = %+v, want ReduceID 77, Value 42, Ops 1", acc)
	}
	// The accumulator flit is full: merging mutates in place, nothing is
	// ever appended.
	if tail.FreeSlots() != 0 {
		t.Errorf("FreeSlots = %d, want 0", tail.FreeSlots())
	}
}

func TestPacketizeAccumulateRejectsBadShapes(t *testing.T) {
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	own := Payload{Seq: 1}
	if _, err := PacketizeInto(nil, Packet{
		ID: 1, PT: Accumulate, Flits: 3, GatherCapacity: 8, Carried: &own,
	}, format, nil); err == nil {
		t.Error("wrong flit count accepted")
	}
	if _, err := PacketizeInto(nil, Packet{
		ID: 1, PT: Accumulate, Flits: AccumulateFlits, GatherCapacity: 8,
	}, format, nil); err == nil {
		t.Error("missing accumulator payload accepted")
	}
}

func TestMergePayloadRequiresAccumulator(t *testing.T) {
	f := &Flit{PT: Accumulate, Type: Tail}
	if f.MergePayload(Payload{ReduceID: 1, Value: 5}) {
		t.Error("merge into an empty flit accepted")
	}
}

func TestPayloadOpsCount(t *testing.T) {
	if (Payload{}).OpsCount() != 1 {
		t.Error("zero-value payload must count as one operand")
	}
	if (Payload{Ops: 3}).OpsCount() != 3 {
		t.Error("explicit Ops not honored")
	}
}

func TestAccumulatePacketTypeString(t *testing.T) {
	if Accumulate.String() != "A" {
		t.Errorf("Accumulate.String() = %q, want A", Accumulate.String())
	}
}

// TestEncoderNames pins the identifier renaming of the periodicity proof's
// encoding: a renaming of identifiers encodes alike, an equality between two
// identifiers does not encode like an inequality, and an equality across
// namespaces is no relation.
func TestEncoderNames(t *testing.T) {
	enc := func(kinds []NameKind, ids ...uint64) []byte {
		var e Encoder
		e.Reset(nil, 0)
		for i, id := range ids {
			e.Name(kinds[i%len(kinds)], id)
		}
		return e.Bytes()
	}
	pkt := []NameKind{PacketName}
	if a, b := enc(pkt, 7, 9, 7), enc(pkt, 40, 3, 40); !bytes.Equal(a, b) {
		t.Errorf("renamed identifiers encode apart: % x, % x", a, b)
	}
	if a, b := enc(pkt, 7, 9, 7), enc(pkt, 7, 9, 9); bytes.Equal(a, b) {
		t.Errorf("different equalities encode alike: % x", a)
	}
	both := []NameKind{PacketName, SeqName}
	if a, b := enc(both, 7, 7), enc(both, 7, 8); !bytes.Equal(a, b) {
		t.Errorf("a packet id equal to a sequence number encodes apart from one that is not: % x, % x", a, b)
	}
}

// TestEncoderCycles pins the cycle forms: relative to the base, Never apart
// from every cycle, and a cycle waited until no earlier than the boundary.
func TestEncoderCycles(t *testing.T) {
	enc := func(base int64, write func(*Encoder)) []byte {
		var e Encoder
		e.Reset(nil, base)
		write(&e)
		return e.Bytes()
	}
	if a, b := enc(100, func(e *Encoder) { e.Cycle(130) }), enc(500, func(e *Encoder) { e.Cycle(530) }); !bytes.Equal(a, b) {
		t.Errorf("cycles the same distance from their bases encode apart: % x, % x", a, b)
	}
	never := enc(100, func(e *Encoder) { e.Cycle(1<<63 - 1) })
	for _, c := range []int64{-1 << 62, 0, 99, 100, 101, 1 << 62} {
		if bytes.Equal(never, enc(100, func(e *Encoder) { e.Cycle(c) })) {
			t.Errorf("cycle %d encodes as never", c)
		}
	}
	if a, b := enc(100, func(e *Encoder) { e.Until(3) }), enc(100, func(e *Encoder) { e.Until(101) }); !bytes.Equal(a, b) {
		t.Errorf("two past cycles waited until encode apart: % x, % x", a, b)
	}
	if a, b := enc(100, func(e *Encoder) { e.Until(101) }), enc(100, func(e *Encoder) { e.Until(102) }); bytes.Equal(a, b) {
		t.Errorf("a future cycle waited until encodes like the boundary: % x", a)
	}
}
