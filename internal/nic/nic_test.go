package nic

import (
	"errors"
	"testing"
	"unsafe"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/reduce"
	"gathernoc/internal/router"
	"gathernoc/internal/topology"
)

func validConfig() Config {
	return Config{
		VCs:               4,
		RouterBufferDepth: 4,
		EjectDepth:        4,
		EjectRate:         1,
		Delta:             5,
		UnicastFlits:      2,
		GatherCapacity:    8,
		GatherVC:          -1,
		Format:            flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 64),
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		wantOK bool
	}{
		{"valid", func(c *Config) {}, true},
		{"no vcs", func(c *Config) { c.VCs = 0 }, false},
		{"no depth", func(c *Config) { c.RouterBufferDepth = 0 }, false},
		{"no eject depth", func(c *Config) { c.EjectDepth = 0 }, false},
		{"no unicast flits", func(c *Config) { c.UnicastFlits = 0 }, false},
		{"no gather capacity", func(c *Config) { c.GatherCapacity = 0 }, false},
		{"negative delta", func(c *Config) { c.Delta = -1 }, false},
		{"nil format", func(c *Config) { c.Format = nil }, false},
		{"gather vc out of range", func(c *Config) { c.GatherVC = 4 }, false},
		{"vcs past a mask", func(c *Config) { c.VCs = maxVCs + 1 }, false},
		{"depth past a byte", func(c *Config) { c.RouterBufferDepth = maxDepth + 1 }, false},
		{"eject depth past a byte", func(c *Config) { c.EjectDepth = maxDepth + 1 }, false},
		{"depths at a byte", func(c *Config) { c.RouterBufferDepth, c.EjectDepth = maxDepth, maxDepth }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.wantOK {
				t.Errorf("Validate() = %v, wantOK = %v", err, tt.wantOK)
			}
		})
	}
	cfg := validConfig()
	cfg.EjectDepth = maxDepth + 1
	if err := cfg.Validate(); !errors.Is(err, router.ErrOutOfRange) {
		t.Errorf("Validate() with EjectDepth %d = %v, want router.ErrOutOfRange", cfg.EjectDepth, err)
	}
}

type flitCapture struct {
	flits []*flit.Flit
	vcs   []int
}

func (c *flitCapture) AcceptFlit(f *flit.Flit, vc int) {
	c.flits = append(c.flits, f)
	c.vcs = append(c.vcs, vc)
}

func TestNICInjectsOneFlitPerCycle(t *testing.T) {
	cfg := validConfig()
	n, err := newNIC(3, cfg, nil, seq())
	if err != nil {
		t.Fatal(err)
	}
	cap := &flitCapture{}
	out := link.NewSlab(1, 1).New(link.Numbered("inj", 0), 1, cap, n)
	n.ConnectInjection(out)

	n.SendUnicastN(0, 9, 2)
	n.SendUnicastN(0, 10, 2)

	for c := int64(0); c < 10; c++ {
		n.Tick(c)
		out.Commit(c)
	}
	// 2 packets x 2 flits at 1 flit/cycle: all 4 delivered by cycle 9.
	if len(cap.flits) != 4 {
		t.Fatalf("flits delivered = %d, want 4", len(cap.flits))
	}
	if n.FlitsInjected.Value() != 4 || n.PacketsInjected.Value() != 2 {
		t.Errorf("counters flits=%d packets=%d, want 4/2",
			n.FlitsInjected.Value(), n.PacketsInjected.Value())
	}
	// Wormhole discipline: each packet's flits stay on one VC, in order.
	perVC := map[int][]*flit.Flit{}
	for i, f := range cap.flits {
		perVC[cap.vcs[i]] = append(perVC[cap.vcs[i]], f)
	}
	for vc, fl := range perVC {
		var lastSeq = -1
		for _, f := range fl {
			if f.Seq <= lastSeq && f.Seq != 0 {
				t.Errorf("vc%d out of order", vc)
			}
			lastSeq = f.Seq
		}
	}
}

func TestNICRespectsCredits(t *testing.T) {
	cfg := validConfig()
	cfg.VCs = 1
	cfg.RouterBufferDepth = 1
	n, err := newNIC(0, cfg, nil, seq())
	if err != nil {
		t.Fatal(err)
	}
	cap := &flitCapture{}
	out := link.NewSlab(1, 1).New(link.Numbered("inj", 0), 1, cap, n)
	n.ConnectInjection(out)

	n.SendUnicastN(0, 5, 2)
	n.Tick(0) // sends head, consuming the only credit
	n.Tick(1) // blocked: no credit
	out.Commit(0)
	out.Commit(1)
	if len(cap.flits) != 1 {
		t.Fatalf("flits = %d, want 1 (credit-limited)", len(cap.flits))
	}
	// Returning the credit unblocks the tail.
	n.AcceptCredit(0)
	n.Tick(2)
	out.Commit(3)
	if len(cap.flits) != 2 {
		t.Fatalf("flits = %d, want 2 after credit", len(cap.flits))
	}
}

func TestNICGatherVCPolicy(t *testing.T) {
	cfg := validConfig()
	cfg.GatherVC = 0
	n, err := newNIC(0, cfg, nil, seq())
	if err != nil {
		t.Fatal(err)
	}
	cap := &flitCapture{}
	out := link.NewSlab(1, 1).New(link.Numbered("inj", 0), 1, cap, n)
	n.ConnectInjection(out)

	n.SendGather(0, 9, nil)
	n.SendUnicastN(0, 9, 2)
	for c := int64(0); c < 20; c++ {
		n.Tick(c)
		out.Commit(c)
	}
	for i, f := range cap.flits {
		if f.PT == flit.Gather && cap.vcs[i] != 0 {
			t.Errorf("gather flit on vc%d, want 0", cap.vcs[i])
		}
		if f.PT != flit.Gather && cap.vcs[i] == 0 {
			t.Errorf("non-gather flit on reserved vc0")
		}
	}
}

func TestEjectorReassembly(t *testing.T) {
	e := NewEjector(link.Numbered("t", 0), 2, 8, 1)
	var got []*ReceivedPacket
	e.OnReceive(func(p *ReceivedPacket) { got = append(got, p.Clone()) })

	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 64)
	fl, err := flit.PacketizeInto(nil, flit.Packet{
		ID: 11, PT: flit.Unicast, Src: 1, Dst: 2, Flits: 3, InjectCycle: 4,
	}, format, nil)

	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fl {
		e.AcceptFlit(f, 0)
	}
	for c := int64(10); c < 14; c++ {
		e.Tick(c)
	}
	if len(got) != 1 {
		t.Fatalf("packets = %d, want 1", len(got))
	}
	p := got[0]
	if p.ID != 11 || p.Src != 1 || p.Dst != 2 || p.Flits != 3 {
		t.Errorf("packet fields wrong: %+v", p)
	}
	if p.HeadArrival != 10 || p.TailArrival != 12 {
		t.Errorf("arrivals = %d/%d, want 10/12", p.HeadArrival, p.TailArrival)
	}
	if p.Latency() != 8 {
		t.Errorf("Latency = %d, want 8", p.Latency())
	}
}

// TestEjectorDiscardsPacketCorruptedAfterItsHead: the receiver CRC model
// discards a packet when any flit arrived corrupted, not only its head, and
// neither delivers nor confirms its payload.
func TestEjectorDiscardsPacketCorruptedAfterItsHead(t *testing.T) {
	e := NewEjector(link.Numbered("t", 0), 1, 8, 1)
	e.SetFaultAware(nil)
	delivered := 0
	e.OnReceive(func(*ReceivedPacket) { delivered++ })

	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 64)
	fl, err := flit.PacketizeInto(nil, flit.Packet{
		ID: 5, PT: flit.Unicast, Src: 1, Dst: 2, Flits: 3, Carried: &flit.Payload{Seq: 7, Src: 1, Dst: 2},
	}, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl[len(fl)-1].Corrupted = true
	for _, f := range fl {
		e.AcceptFlit(f, 0)
	}
	for c := int64(0); c < 6; c++ {
		e.Tick(c)
	}
	confirmed := 0
	e.DrainDelivered(func(DeliveredPayload) { confirmed++ })
	if e.PacketsDiscarded.Value() != 1 || delivered != 0 || confirmed != 0 {
		t.Errorf("discarded %d, delivered %d, confirmed %d; want 1, 0, 0",
			e.PacketsDiscarded.Value(), delivered, confirmed)
	}
}

func TestEjectorInterleavedVCs(t *testing.T) {
	e := NewEjector(link.Numbered("t", 0), 2, 8, 2)
	var got []*ReceivedPacket
	e.OnReceive(func(p *ReceivedPacket) { got = append(got, p.Clone()) })

	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 64)
	a, _ := flit.PacketizeInto(nil, flit.Packet{ID: 1, PT: flit.Unicast, Flits: 2}, format, nil)
	b, _ := flit.PacketizeInto(nil, flit.Packet{ID: 2, PT: flit.Unicast, Flits: 2}, format, nil)
	// Interleave the two packets across VCs, as wormhole switching allows.
	e.AcceptFlit(a[0], 0)
	e.AcceptFlit(b[0], 1)
	e.AcceptFlit(a[1], 0)
	e.AcceptFlit(b[1], 1)
	for c := int64(0); c < 6; c++ {
		e.Tick(c)
	}
	if len(got) != 2 {
		t.Fatalf("packets = %d, want 2", len(got))
	}
}

func TestEjectorGatherPayloadCollection(t *testing.T) {
	e := NewEjector(link.Numbered("t", 0), 1, 8, 4)
	var got []*ReceivedPacket
	e.OnReceive(func(p *ReceivedPacket) { got = append(got, p.Clone()) })

	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 64)
	own := &flit.Payload{Seq: 1, Value: 5}
	fl, _ := flit.PacketizeInto(nil, flit.Packet{
		ID: 9, PT: flit.Gather, Flits: format.GatherFlits(8),
		GatherCapacity: 8, Carried: own,
	}, format, nil)

	// Simulate two more uploads along the way.
	fl[1].AddPayload(flit.Payload{Seq: 2, Value: 6})
	fl[2].AddPayload(flit.Payload{Seq: 3, Value: 7})
	for _, f := range fl {
		e.AcceptFlit(f, 0)
	}
	for c := int64(0); c < 10; c++ {
		e.Tick(c)
	}
	if len(got) != 1 {
		t.Fatalf("packets = %d, want 1", len(got))
	}
	if len(got[0].Payloads) != 3 {
		t.Fatalf("payloads = %d, want 3", len(got[0].Payloads))
	}
}

func TestNICPending(t *testing.T) {
	n, err := newNIC(0, validConfig(), nil, seq())
	if err != nil {
		t.Fatal(err)
	}
	if n.Pending() {
		t.Error("fresh NIC pending")
	}
	n.SendUnicastN(0, 3, 2)
	if !n.Pending() {
		t.Error("queued packet not reported pending")
	}
}

// TestInternalSendsCarryTheSubmitTag pins who owns the packets a NIC sends
// on its own: the δ-timeout fallback and every retransmission carry the tag
// of the submit that created them, whatever was sent on the NIC since.
func TestInternalSendsCarryTheSubmitTag(t *testing.T) {
	// The router is never ticked, so the offered payload stays at its
	// station until δ retracts it, and nothing ever confirms delivery.
	slab, err := router.NewSlab(router.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rtr, err := slab.New(0, func(topology.NodeID, *flit.Flit) router.Route { return router.Route{} })
	if err != nil {
		t.Fatal(err)
	}
	cfg := validConfig()
	cfg.RouterBufferDepth = 64 // nothing returns credits here
	n, err := newNIC(0, cfg, rtr, seq())
	if err != nil {
		t.Fatal(err)
	}
	n.EnableReliability(8, 1, 2)
	cap := &flitCapture{}
	out := link.NewSlab(1, 1).New(link.Numbered("inj", 0), 1, cap, n)
	n.ConnectInjection(out)
	owner, other := flit.NewTag(1, 0), flit.NewTag(2, 0)
	n.SubmitPayload(reduce.GatherStation, owner, flit.Payload{Seq: 7, Dst: 3, Bits: 32})
	for c := int64(0); c < 40; c++ {
		if c%4 == 0 {
			n.SendUnicastN(other, 9, 2) // another job's send in between
		}
		n.Tick(c)
		out.Commit(c)
	}
	if n.SelfInitiatedGathers.Value() != 1 || n.Retransmits.Value() == 0 {
		t.Fatalf("fallbacks=%d retransmits=%d, want 1 and > 0", n.SelfInitiatedGathers.Value(), n.Retransmits.Value())
	}
	for _, f := range cap.flits {
		want := other
		if f.PT == flit.Gather || f.Dst == 3 {
			want = owner
		}
		if f.Tag != want {
			t.Errorf("packet %d (%s to %d): tag %s, want %s", f.PacketID, f.PT, f.Dst, f.Tag, want)
		}
	}
}

// seq returns a fresh packet-id allocator.
func seq() func(topology.NodeID) uint64 {
	var n uint64
	return func(topology.NodeID) uint64 {
		n++
		return n
	}
}

// TestNICConfigRejectsBadReduceKnobs checks that accumulation runs on the
// knobs gather does, validated alike with INA on: a negative δ is refused.
func TestNICConfigRejectsBadReduceKnobs(t *testing.T) {
	cfg := validConfig()
	cfg.EnableINA = true
	cfg.Delta = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Delta accepted with EnableINA")
	}
}

// TestNICReduceDefaults checks that an accumulation operand waits out the
// NIC's one δ, SetDelta's override included, and that an accumulate packet
// takes η as its merge budget.
func TestNICReduceDefaults(t *testing.T) {
	slab, err := router.NewSlab(router.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rtr, err := slab.New(0, func(topology.NodeID, *flit.Flit) router.Route { return router.Route{} })
	if err != nil {
		t.Fatal(err)
	}
	cfg := validConfig()
	cfg.EnableINA = true
	n, err := newNIC(0, cfg, rtr, seq())
	if err != nil {
		t.Fatal(err)
	}
	n.SetDelta(17)
	n.SetDelta(-1) // ignored
	n.SubmitPayload(reduce.ReduceStation, 0, flit.Payload{Seq: 1, Dst: 3, ReduceID: 4})
	if ws := n.waits[reduce.ReduceStation]; len(ws) != 1 || ws[0].deadline != 17 {
		t.Errorf("operand waits %+v, want one with deadline 17", ws)
	}
	n.SendAccumulate(0, 3, 4, flit.Payload{Seq: 2, Dst: 3, ReduceID: 4})
	if p := n.packet(n.queue.At(0)); p.GatherCapacity != cfg.GatherCapacity {
		t.Errorf("accumulate packet budget %d, want η = %d", p.GatherCapacity, cfg.GatherCapacity)
	}
}

func TestNICConfigEnableINANeedsCapacity(t *testing.T) {
	cfg := validConfig()
	cfg.EnableINA = true
	cfg.GatherCapacity = 0
	if err := cfg.Validate(); err == nil {
		t.Error("EnableINA without a merge budget (GatherCapacity) accepted")
	}
	cfg.GatherCapacity = 8
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid INA config rejected: %v", err)
	}
}

func TestNICRejectsAccumulateWithoutINA(t *testing.T) {
	cfg := validConfig()
	n, err := newNIC(0, cfg, nil, func(topology.NodeID) uint64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s without EnableINA did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("SendAccumulate", func() { n.SendAccumulate(0, 9, 1, flit.Payload{}) })
	mustPanic("SubmitPayload", func() { n.SubmitPayload(reduce.ReduceStation, 0, flit.Payload{}) })
}

// newNIC returns a NIC with a slab of its own.
func newNIC(id topology.NodeID, cfg Config, rtr *router.Router, nextID func(topology.NodeID) uint64) (*NIC, error) {
	s, err := NewSlab(cfg, 1)
	if err != nil {
		return nil, err
	}
	return s.New(id, rtr, nextID)
}

// TestComponentSizePin pins the bytes of a NIC, its ejector included, of
// an ejector, which a 32x32 fabric holds 1 024 of, and of a reassembly
// record, which it holds one of per ejection VC: each may fall, never rise
// (DESIGN.md §9). They were 936, 488 and 104 with a configuration copy and
// two ack closures per NIC, word-sized counters, a ring per ejection VC, a
// latency sample per ejector and word-sized ids and counts per record.
func TestComponentSizePin(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, pin uintptr
	}{
		{"NIC", unsafe.Sizeof(NIC{}), 720},
		{"Ejector", unsafe.Sizeof(Ejector{}), 328},
		{"partialPacket", unsafe.Sizeof(partialPacket{}), 80},
	} {
		if c.size > c.pin {
			t.Errorf("%s is %d bytes, pin %d", c.name, c.size, c.pin)
		}
	}
}
