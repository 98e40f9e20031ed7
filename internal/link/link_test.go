package link

import (
	"fmt"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/topology"
)

type captureSink struct {
	flits []*flit.Flit
	vcs   []int
}

func (c *captureSink) AcceptFlit(f *flit.Flit, vc int) {
	c.flits = append(c.flits, f)
	c.vcs = append(c.vcs, vc)
}

type captureCredit struct {
	vcs []int
}

func (c *captureCredit) AcceptCredit(vc int) { c.vcs = append(c.vcs, vc) }

func TestLinkDeliversAfterLatency(t *testing.T) {
	down := &captureSink{}
	l := newLink(Name{label: "t"}, 1, down, nil)
	f := &flit.Flit{PacketID: 1}

	l.Send(f, 2, 10) // due at cycle 11
	l.Commit(10)
	if len(down.flits) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	if l.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", l.InFlight())
	}
	l.Commit(11)
	if len(down.flits) != 1 || down.flits[0] != f || down.vcs[0] != 2 {
		t.Fatalf("delivery wrong: %v %v", down.flits, down.vcs)
	}
	if l.InFlight() != 0 {
		t.Fatalf("InFlight = %d, want 0", l.InFlight())
	}
	if l.FlitsCarried.Value() != 1 {
		t.Errorf("FlitsCarried = %d, want 1", l.FlitsCarried.Value())
	}
}

func TestLinkLatencyFloor(t *testing.T) {
	down := &captureSink{}
	l := newLink(Name{label: "t"}, 0, down, nil) // coerced to 1
	l.Send(&flit.Flit{}, 0, 5)
	l.Commit(5)
	if len(down.flits) != 0 {
		t.Fatal("zero-latency link delivered same cycle")
	}
	l.Commit(6)
	if len(down.flits) != 1 {
		t.Fatal("flit lost")
	}
}

func TestLinkPreservesOrder(t *testing.T) {
	down := &captureSink{}
	l := newLink(Name{label: "t"}, 3, down, nil)
	for i := 0; i < 5; i++ {
		l.Send(&flit.Flit{PacketID: uint64(i)}, 0, int64(i))
	}
	for c := int64(0); c < 10; c++ {
		l.Commit(c)
	}
	if len(down.flits) != 5 {
		t.Fatalf("delivered %d, want 5", len(down.flits))
	}
	for i, f := range down.flits {
		if f.PacketID != uint64(i) {
			t.Errorf("position %d: packet %d", i, f.PacketID)
		}
	}
}

func TestLinkCreditReturn(t *testing.T) {
	up := &captureCredit{}
	l := newLink(Name{label: "t"}, 1, &captureSink{}, up)
	l.ReturnCredit(3, 7) // due at cycle 8
	l.Commit(7)
	if len(up.vcs) != 0 {
		t.Fatal("credit returned same cycle")
	}
	l.Commit(8)
	if len(up.vcs) != 1 || up.vcs[0] != 3 {
		t.Fatalf("credits = %v, want [3]", up.vcs)
	}
}

func TestLinkNilCreditSink(t *testing.T) {
	l := newLink(Name{label: "t"}, 1, &captureSink{}, nil)
	l.ReturnCredit(0, 0)
	l.Commit(1) // must not panic
}

// TestLinkName pins the rendered names: telemetry CSV, heatmap and trace
// files carry them, so they are the strings the fabric formatted at
// construction before names were built on demand.
func TestLinkName(t *testing.T) {
	for _, c := range []struct {
		name Name
		want string
	}{
		{Name{label: "east"}, "east"},
		{Numbered("inj", 12), "inj12"},
		{Numbered("sinklink", 0), "sinklink0"},
		{Between(3, topology.EastPort, 4), fmt.Sprintf("r%d%s->r%d", 3, topology.EastPort, 4)},
		{Between(12, topology.SouthPort, 4), fmt.Sprintf("r%d%s->r%d", 12, topology.SouthPort, 4)},
	} {
		if got := newLink(c.name, 1, &captureSink{}, nil).Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

// TestLinkCreditBurstGrowsRing stages far more credits in one cycle than
// the ring's initial latency-derived capacity (an ejector drain burst) and
// checks every credit is still delivered, in order, one cycle later.
func TestLinkCreditBurstGrowsRing(t *testing.T) {
	up := &captureCredit{}
	l := newLink(Name{label: "t"}, 1, &captureSink{}, up)
	const burst = 64
	for i := 0; i < burst; i++ {
		l.ReturnCredit(i%4, 10)
	}
	l.Commit(10)
	if len(up.vcs) != 0 {
		t.Fatalf("credits delivered same-cycle: %d", len(up.vcs))
	}
	l.Commit(11)
	if len(up.vcs) != burst {
		t.Fatalf("credits delivered = %d, want %d", len(up.vcs), burst)
	}
	for i, vc := range up.vcs {
		if vc != i%4 {
			t.Fatalf("credit %d on vc%d, want vc%d (order lost)", i, vc, i%4)
		}
	}
	if !l.Idle() {
		t.Error("link not idle after delivering the burst")
	}
}

// TestLinkFlitBurstGrowsRing checks the flit ring's growth path the same
// way: more staged flits than the initial capacity, delivered in order.
func TestLinkFlitBurstGrowsRing(t *testing.T) {
	down := &captureSink{}
	l := newLink(Name{label: "t"}, 2, down, nil)
	const burst = 32
	for i := 0; i < burst; i++ {
		l.Send(&flit.Flit{PacketID: uint64(i + 1)}, 0, 5)
	}
	l.Commit(6)
	if len(down.flits) != 0 {
		t.Fatalf("flits delivered early: %d", len(down.flits))
	}
	l.Commit(7)
	if len(down.flits) != burst {
		t.Fatalf("flits delivered = %d, want %d", len(down.flits), burst)
	}
	for i, f := range down.flits {
		if f.PacketID != uint64(i+1) {
			t.Fatalf("flit %d is packet %d (order lost)", i, f.PacketID)
		}
	}
}

// newLink returns a link with a slab of its own.
func newLink(name Name, latency int, down FlitSink, up CreditSink) *Link {
	return NewSlab(1).New(name, latency, down, up)
}
