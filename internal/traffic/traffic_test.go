package traffic

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"gathernoc/internal/cnn"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

func TestPatternsNeverSelfTarget(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	patterns := []Pattern{
		UniformRandom{Nodes: 16},
		Transpose{Mesh: mesh},
		BitComplement{Nodes: 16},
		Hotspot{Nodes: 16, Target: 0, Fraction: 0.3},
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range patterns {
		for src := 0; src < 16; src++ {
			for i := 0; i < 50; i++ {
				if d := p.Destination(topology.NodeID(src), rng); d == topology.NodeID(src) {
					t.Errorf("%s: self-target from %d", p.Name(), src)
				}
			}
		}
	}
}

func TestTransposeMapsCoordinates(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	p := Transpose{Mesh: mesh}
	rng := rand.New(rand.NewSource(1))
	src := mesh.ID(topology.Coord{Row: 1, Col: 3})
	want := mesh.ID(topology.Coord{Row: 3, Col: 1})
	if got := p.Destination(src, rng); got != want {
		t.Errorf("Destination = %d, want %d", got, want)
	}
}

func TestBitComplement(t *testing.T) {
	p := BitComplement{Nodes: 16}
	rng := rand.New(rand.NewSource(1))
	if got := p.Destination(3, rng); got != 12 {
		t.Errorf("Destination(3) = %d, want 12", got)
	}
}

func TestHotspotFraction(t *testing.T) {
	p := Hotspot{Nodes: 64, Target: 5, Fraction: 0.5}
	rng := rand.New(rand.NewSource(42))
	hot := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.Destination(0, rng) == 5 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("hot fraction = %v, want ~0.5", frac)
	}
}

func TestPatternByName(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	for _, name := range []string{"uniform", "transpose", "bitcomplement", "hotspot"} {
		p, err := PatternByName(name, mesh)
		if err != nil || p.Name() != name {
			t.Errorf("PatternByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PatternByName("nope", mesh); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestGeneratorRunDelivery(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(nw, GeneratorConfig{
		Pattern:       UniformRandom{Nodes: 16},
		InjectionRate: 0.02,
		PacketFlits:   2,
		Warmup:        100,
		Measure:       400,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("no packets injected")
	}
	if res.Received != res.Injected {
		t.Errorf("received %d != injected %d after drain", res.Received, res.Injected)
	}
	if res.Latency.Mean() <= 0 {
		t.Error("latency not recorded")
	}
	if res.Throughput <= 0 {
		t.Error("throughput not computed")
	}
	// Latency decomposes into queueing + in-network portions.
	if res.QueueLatency.N() != res.Latency.N() || res.NetworkLatency.N() != res.Latency.N() {
		t.Error("latency breakdown sample counts differ")
	}
	sum := res.QueueLatency.Mean() + res.NetworkLatency.Mean()
	if diff := sum - res.Latency.Mean(); diff > 0.001 || diff < -0.001 {
		t.Errorf("queue %.2f + network %.2f != total %.2f",
			res.QueueLatency.Mean(), res.NetworkLatency.Mean(), res.Latency.Mean())
	}
}

// TestGeneratorOneVCMesh runs uniform traffic on a 4x4 mesh of one-VC
// routers, the smallest VC slab a fabric carves: every port's one VC
// carries every packet, and every packet sent is delivered with the credit
// loops and router state consistent throughout.
func TestGeneratorOneVCMesh(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	cfg.Router.VCs = 1
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(nw, GeneratorConfig{
		Pattern:       UniformRandom{Nodes: 16},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Warmup:        50,
		Measure:       400,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := nw.Engine()
	eng.AddTicker(g)
	for !(g.Injected() && nw.Quiescent()) {
		if eng.Cycle() > 100_000 {
			t.Fatalf("not drained by cycle %d", eng.Cycle())
		}
		eng.RunUntil(func() bool { return false }, 10) // runs out its 10 cycles
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", eng.Cycle(), err)
		}
	}
	if g.Sent() == 0 || g.Sent() != g.Delivered() {
		t.Fatalf("sent %d, delivered %d", g.Sent(), g.Delivered())
	}
}

func TestGeneratorConfigValidate(t *testing.T) {
	good := GeneratorConfig{Pattern: UniformRandom{Nodes: 4}, InjectionRate: 0.1, PacketFlits: 2, Measure: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	bad := []GeneratorConfig{
		{InjectionRate: 0.1, PacketFlits: 2, Measure: 10},
		{Pattern: UniformRandom{Nodes: 4}, InjectionRate: -0.1, PacketFlits: 2, Measure: 10},
		{Pattern: UniformRandom{Nodes: 4}, InjectionRate: 1.5, PacketFlits: 2, Measure: 10},
		{Pattern: UniformRandom{Nodes: 4}, InjectionRate: 0.1, PacketFlits: 0, Measure: 10},
		{Pattern: UniformRandom{Nodes: 4}, InjectionRate: 0.1, PacketFlits: 2, Measure: 0},
		{Pattern: UniformRandom{Nodes: 4}, InjectionRate: 0.1, PacketFlits: 2, Warmup: -1, Measure: 10},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 0, Type: EventGather, Src: 0, Dst: 16, Seq: 1, Value: 10},
		{Cycle: 0, Type: EventPayload, Src: 1, Dst: 16, Seq: 2, Value: 11},
		{Cycle: 5, Type: EventUnicast, Src: 2, Dst: 3, Seq: 3, Value: 12},
		{Cycle: 9, Type: EventMulticast, Src: 4, Dsts: []int{1, 2, 3}, Flits: 2},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("len = %d, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i].Cycle != events[i].Cycle || got[i].Type != events[i].Type ||
			got[i].Src != events[i].Src || got[i].Seq != events[i].Seq {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

// Property: trace round-trips preserve every field for arbitrary events.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(cycle int64, src, dst uint8, seq, value uint64) bool {
		if cycle < 0 {
			cycle = -cycle
		}
		in := []Event{{Cycle: cycle, Type: EventUnicast, Src: int(src), Dst: int(dst), Seq: seq, Value: value}}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil || len(out) != 1 {
			return false
		}
		a, b := out[0], in[0]
		return a.Cycle == b.Cycle && a.Type == b.Type && a.Src == b.Src &&
			a.Dst == b.Dst && a.Seq == b.Seq && a.Value == b.Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGenerateLayerTraceShape(t *testing.T) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	events := GenerateLayerTrace(layer, 4, 4, true /* gather */, 100, 16)
	if len(events) != 16 {
		t.Fatalf("len = %d, want 16", len(events))
	}
	gathers, payloads := 0, 0
	for _, e := range events {
		switch e.Type {
		case EventGather:
			gathers++
		case EventPayload:
			payloads++
		}
		if e.Cycle != 100 {
			t.Errorf("cycle = %d, want 100", e.Cycle)
		}
	}
	if gathers != 4 || payloads != 12 {
		t.Errorf("gathers/payloads = %d/%d, want 4/12", gathers, payloads)
	}

	ru := GenerateLayerTrace(layer, 4, 4, false, 0, 16)
	for _, e := range ru {
		if e.Type != EventUnicast {
			t.Errorf("RU trace has %s event", e.Type)
		}
	}
}

func TestReplayerDeliversTrace(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	// Scale the per-column δ the way the systolic layer does.
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			id := nw.Topology().ID(topology.Coord{Row: row, Col: col})
			nw.NIC(id).SetDelta(5 * int64(1+col))
		}
	}
	events := GenerateLayerTrace(layer, 4, 4, true, 0, nw.Topology().NumNodes())
	rp, err := NewReplayer(nw, events)
	if err != nil {
		t.Fatal(err)
	}
	payloads := 0
	for row := 0; row < 4; row++ {
		nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) { payloads += len(p.Payloads) })
	}
	if _, err := rp.Run(100000); err != nil {
		t.Fatal(err)
	}
	if rp.EventsInjected != 16 {
		t.Errorf("injected = %d, want 16", rp.EventsInjected)
	}
	if payloads != 16 {
		t.Errorf("payloads delivered = %d, want 16", payloads)
	}
}

func TestReplayerValidation(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		events []Event
		want   error // nil: any error
	}{
		{[]Event{{Cycle: 5, Type: EventUnicast, Src: 0, Dst: 1}, {Cycle: 4, Type: EventUnicast, Src: 0, Dst: 1}}, nil},
		{[]Event{{Cycle: 0, Type: EventUnicast, Src: 99, Dst: 1}}, errNodeOutOfRange},
		{[]Event{{Cycle: 0, Type: EventUnicast, Src: 0, Dst: 99}}, errNodeOutOfRange},
		{[]Event{{Cycle: 0, Type: "bogus", Src: 0, Dst: 1}}, nil},
		// A destination inside the set's 64-bit word but off the 4x4
		// fabric, one far outside it, and none at all.
		{[]Event{{Cycle: 0, Type: EventMulticast, Src: 0, Dsts: []int{1, 40}}}, errNodeOutOfRange},
		{[]Event{{Cycle: 0, Type: EventMulticast, Src: 0, Dsts: []int{1, 99999}}}, errNodeOutOfRange},
		{[]Event{{Cycle: 0, Type: EventMulticast, Src: 0, Dsts: []int{-1}}}, errNodeOutOfRange},
		{[]Event{{Cycle: 0, Type: EventMulticast, Src: 0}}, errEmptyMulticast},
		{[]Event{{Cycle: 0, Type: EventMulticast, Src: 0, Dsts: []int{1}, Flits: -3}}, errNegativeFlits},
		{[]Event{{Cycle: 0, Type: EventUnicast, Src: 0, Dst: 1, Flits: -1}}, errNegativeFlits},
	}
	for i, c := range bad {
		_, err := NewReplayer(nw, c.events)
		if err == nil {
			t.Errorf("bad trace %d accepted", i)
		} else if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("bad trace %d: %v, want %v", i, err, c.want)
		}
	}
}
