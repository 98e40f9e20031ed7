package noc

import (
	"slices"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

func mustNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		wantOK bool
	}{
		{"default", func(c *Config) {}, true},
		{"bad mesh", func(c *Config) { c.Rows = 0 }, false},
		{"bad link", func(c *Config) { c.LinkLatency = 0 }, false},
		{"link past a narrowed due cycle", func(c *Config) { c.LinkLatency = link.MaxLatency + 1 }, false},
		{"bad unicast", func(c *Config) { c.UnicastFlits = 0 }, false},
		{"bad eject", func(c *Config) { c.EjectRate = 0 }, false},
		{"bad sink drain", func(c *Config) { c.SinkDrainRate = 0 }, false},
		{"bad router", func(c *Config) { c.Router.VCs = 0 }, false},
		{"negative gather capacity", func(c *Config) { c.GatherCapacity = -1 }, false},
		{"buffer past a byte", func(c *Config) { c.Router.BufferDepth = 256 }, false},
		{"rc delay past a byte", func(c *Config) { c.Router.RCDelay = 256 }, false},
		{"va delay past a byte", func(c *Config) { c.Router.VADelay = 256 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 4)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.wantOK {
				t.Errorf("Validate() = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
}

func TestHeaderHopLatencyDefault(t *testing.T) {
	// κ = RC(1)+VA(1)+SA/ST(1)+link(1) = 4, the calibration of DESIGN.md §4.
	if got := DefaultConfig(8, 8).HeaderHopLatency(); got != 4 {
		t.Errorf("κ = %d, want 4", got)
	}
}

func TestEffectiveGatherCapacityDefaultsToRowWidth(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	if got := cfg.EffectiveGatherCapacity(); got != 8 {
		t.Errorf("capacity = %d, want 8", got)
	}
	cfg.GatherCapacity = 3
	if got := cfg.EffectiveGatherCapacity(); got != 3 {
		t.Errorf("capacity = %d, want 3", got)
	}
}

func TestUnicastCrossesNetwork(t *testing.T) {
	nw := mustNetwork(t, DefaultConfig(4, 4))
	var got []*nic.ReceivedPacket
	nw.NIC(15).OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })

	nw.NIC(0).SendUnicastN(0, 15, 2)
	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("received %d packets, want 1", len(got))
	}
	p := got[0]
	if p.Src != 0 || p.Dst != 15 || p.Flits != 2 {
		t.Errorf("packet = %+v", p)
	}
	// 6 mesh hops (0,0)->(3,3) plus injection and ejection stages; the
	// exact value documents the simulator's timing model.
	if p.Latency() <= 0 || p.Latency() > 64 {
		t.Errorf("latency = %d, out of plausible range", p.Latency())
	}
}

func TestUnicastLatencyMatchesHopModel(t *testing.T) {
	// Across one row with no contention, head latency should be
	// (hops+1 ejection+1 injection treated as hops) * κ plus NIC/drain
	// overhead; serialization adds flits-1. Assert the exact analytic
	// relation holds for several distances to pin the timing model.
	cfg := DefaultConfig(1, 8)
	cfg.EastSinks = false
	kappa := int64(cfg.HeaderHopLatency())
	var prev int64
	for d := 1; d <= 7; d++ {
		nw := mustNetwork(t, cfg)
		var got []*nic.ReceivedPacket
		nw.NIC(topology.NodeID(d)).OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })
		nw.NIC(0).SendUnicastN(0, topology.NodeID(d), 2)
		if _, err := nw.RunUntilQuiescent(10000); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("d=%d: received %d", d, len(got))
		}
		lat := got[0].Latency()
		if d > 1 && lat-prev != kappa {
			t.Errorf("d=%d: latency %d, want previous+κ (%d+%d)", d, lat, prev, kappa)
		}
		prev = lat
	}
}

func TestGatherCollectsRowPayloads(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	nw := mustNetwork(t, cfg)
	row := 1
	sink := nw.Sink(row)
	var got []*nic.ReceivedPacket
	sink.OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })

	dst := nw.RowSinkID(row)
	// PEs (1,1)..(1,3) deposit payloads for piggybacking; PE (1,0)
	// initiates the gather packet with its own payload. Per the paper, δ
	// is configured per router to cover the pipeline delay from the
	// initiator, so it scales with the column distance.
	for c := 1; c < 4; c++ {
		id := nw.Topology().ID(topology.Coord{Row: row, Col: c})
		nw.NIC(id).SetDelta(cfg.Delta * int64(1+c))
		nw.NIC(id).SubmitPayload(reduce.GatherStation, 0, flit.Payload{
			Seq: uint64(c), Src: id, Dst: dst, Bits: 32, Value: uint64(100 + c),
		})
	}
	initiator := nw.Topology().ID(topology.Coord{Row: row, Col: 0})
	nw.NIC(initiator).SendGather(0, dst, &flit.Payload{
		Seq: 0, Src: initiator, Dst: dst, Bits: 32, Value: 100,
	})

	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sink received %d packets, want 1 gather packet", len(got))
	}
	p := got[0]
	if p.PT != flit.Gather {
		t.Fatalf("packet type = %s, want G", p.PT)
	}
	if len(p.Payloads) != 4 {
		t.Fatalf("payloads = %d, want 4 (whole row in one packet)", len(p.Payloads))
	}
	seen := map[uint64]bool{}
	for _, pl := range p.Payloads {
		if seen[pl.Value] {
			t.Errorf("duplicate payload %d", pl.Value)
		}
		seen[pl.Value] = true
	}
	for v := uint64(100); v <= 103; v++ {
		if !seen[v] {
			t.Errorf("payload %d missing", v)
		}
	}
}

func TestGatherDeltaTimeoutSelfInitiates(t *testing.T) {
	// No gather packet ever passes, so every deposited payload must
	// self-initiate after δ and still reach the sink.
	cfg := DefaultConfig(4, 4)
	cfg.Delta = 5
	nw := mustNetwork(t, cfg)
	row := 2
	dst := nw.RowSinkID(row)
	var got []*nic.ReceivedPacket
	nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })

	id := nw.Topology().ID(topology.Coord{Row: row, Col: 2})
	nw.NIC(id).SubmitPayload(reduce.GatherStation, 0, flit.Payload{Seq: 1, Src: id, Dst: dst, Bits: 32, Value: 7})

	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Payloads) != 1 || got[0].Payloads[0].Value != 7 {
		t.Fatalf("self-initiated gather not delivered: %+v", got)
	}
	if nw.NIC(id).SelfInitiatedGathers.Value() != 1 {
		t.Errorf("SelfInitiatedGathers = %d, want 1", nw.NIC(id).SelfInitiatedGathers.Value())
	}
	// The self-initiated packet cannot have left before the δ deadline.
	if got[0].InjectCycle < 5 {
		t.Errorf("self-initiation at cycle %d, before δ=5", got[0].InjectCycle)
	}
}

func TestRepetitiveUnicastDeliversAll(t *testing.T) {
	// The RU baseline: every PE in a row unicasts to the row sink.
	cfg := DefaultConfig(4, 4)
	nw := mustNetwork(t, cfg)
	row := 0
	dst := nw.RowSinkID(row)
	var got []*nic.ReceivedPacket
	nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })

	for c := 0; c < 4; c++ {
		id := nw.Topology().ID(topology.Coord{Row: row, Col: c})
		nw.NIC(id).SendUnicastN(0, dst, 2)
	}
	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("sink received %d packets, want 4", len(got))
	}
}

func TestMulticastReachesAllDestinations(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	nw := mustNetwork(t, cfg)
	received := map[topology.NodeID]int{}
	for id := 0; id < nw.Topology().NumNodes(); id++ {
		id := topology.NodeID(id)
		nw.NIC(id).OnReceive(func(p *nic.ReceivedPacket) { received[id]++ })
	}
	dsts := topology.DestSetOf(nw.Topology().NumNodes(), 3, 7, 12, 15, 0)
	nw.NIC(5).SendMulticast(0, dsts, 2)

	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	for _, d := range dsts.Nodes() {
		if received[d] != 1 {
			t.Errorf("dst %d received %d copies, want 1", d, received[d])
		}
	}
	for id, n := range received {
		if !slices.Contains(dsts.Nodes(), id) && n > 0 {
			t.Errorf("non-destination %d received %d packets", id, n)
		}
	}
}

func TestBackpressureManyToOneDrains(t *testing.T) {
	// Hotspot: every node floods the same destination; credit flow control
	// must avoid overflow panics and the network must eventually drain.
	cfg := DefaultConfig(4, 4)
	nw := mustNetwork(t, cfg)
	count := 0
	nw.NIC(5).OnReceive(func(p *nic.ReceivedPacket) { count++ })
	for id := 0; id < nw.Topology().NumNodes(); id++ {
		if id == 5 {
			continue
		}
		for k := 0; k < 4; k++ {
			nw.NIC(topology.NodeID(id)).SendUnicastN(0, 5, 4)
		}
	}
	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if count != 15*4 {
		t.Errorf("delivered %d packets, want %d", count, 15*4)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, Activity) {
		cfg := DefaultConfig(4, 4)
		nw := mustNetwork(t, cfg)
		for row := 0; row < 4; row++ {
			dst := nw.RowSinkID(row)
			for c := 1; c < 4; c++ {
				id := nw.Topology().ID(topology.Coord{Row: row, Col: c})
				nw.NIC(id).SubmitPayload(reduce.GatherStation, 0, flit.Payload{
					Seq: uint64(row*10 + c), Src: id, Dst: dst, Bits: 32,
				})
			}
			left := nw.Topology().ID(topology.Coord{Row: row, Col: 0})
			nw.NIC(left).SendGather(0, dst, &flit.Payload{Seq: uint64(row * 100), Src: left, Dst: dst})
			nw.NIC(left).SendUnicastN(0, topology.NodeID((row+1)%4*4), 2)
		}
		cycles, err := nw.RunUntilQuiescent(50000)
		if err != nil {
			t.Fatal(err)
		}
		return cycles, nw.Activity()
	}
	c1, a1 := run()
	c2, a2 := run()
	if c1 != c2 {
		t.Errorf("cycle counts differ: %d vs %d", c1, c2)
	}
	if a1 != a2 {
		t.Errorf("activity differs:\n%+v\n%+v", a1, a2)
	}
}

func TestSinkAddressing(t *testing.T) {
	nw := mustNetwork(t, DefaultConfig(4, 4))
	if !nw.IsSinkID(nw.RowSinkID(0)) || !nw.IsSinkID(nw.RowSinkID(3)) {
		t.Error("sink ids not recognized")
	}
	if nw.IsSinkID(15) || nw.IsSinkID(nw.RowSinkID(3)+1) {
		t.Error("non-sink ids recognized as sinks")
	}
	if nw.Sink(-1) != nil || nw.Sink(4) != nil {
		t.Error("out-of-range Sink() not nil")
	}
	if nw.Sink(2).row != 2 {
		t.Errorf("Sink(2) serves row %d", nw.Sink(2).row)
	}
}

func TestGatherVCReservation(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Router.GatherVC = 3
	nw := mustNetwork(t, cfg)
	row := 0
	dst := nw.RowSinkID(row)
	var got []*nic.ReceivedPacket
	nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })

	left := nw.Topology().ID(topology.Coord{Row: row, Col: 0})
	nw.NIC(left).SendGather(0, dst, &flit.Payload{Seq: 1, Src: left, Dst: dst, Value: 9})
	// Background unicast traffic on the same row.
	for c := 1; c < 4; c++ {
		id := nw.Topology().ID(topology.Coord{Row: row, Col: c})
		nw.NIC(id).SendUnicastN(0, dst, 2)
	}
	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("sink received %d packets, want 4", len(got))
	}
	var sawGather bool
	for _, p := range got {
		if p.PT == flit.Gather {
			sawGather = true
			if len(p.Payloads) != 1 || p.Payloads[0].Value != 9 {
				t.Errorf("gather payloads = %+v", p.Payloads)
			}
		}
	}
	if !sawGather {
		t.Error("gather packet not delivered")
	}
}

func TestActivityCountsPlausible(t *testing.T) {
	nw := mustNetwork(t, DefaultConfig(4, 4))
	nw.NIC(0).SendUnicastN(0, 15, 2)
	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	a := nw.Activity()
	// 2 flits across 7 routers (6 hops + ejection router... the packet
	// visits routers (0,0)..(3,3): 7 routers), each write+read once.
	if a.BufferWrites != a.BufferReads {
		t.Errorf("writes %d != reads %d on a drained network", a.BufferWrites, a.BufferReads)
	}
	if a.BufferWrites != 14 {
		t.Errorf("buffer writes = %d, want 14 (2 flits x 7 routers)", a.BufferWrites)
	}
	// Link flits: injection + 6 mesh links + ejection = 8 traversals x 2.
	if a.LinkFlits != 16 {
		t.Errorf("link flits = %d, want 16", a.LinkFlits)
	}
	if a.PacketsSent != 1 || a.FlitsSent != 2 {
		t.Errorf("sent = %d pkts / %d flits, want 1/2", a.PacketsSent, a.FlitsSent)
	}
}
