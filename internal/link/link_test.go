package link

import (
	"fmt"
	"testing"
	"unsafe"

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
	return NewSlab(1, latency).New(name, latency, down, up)
}

// TestComponentSizePin pins the bytes of a link and of its staged flit and
// credit, which a 32x32 fabric holds 6 016, 12 032 and 12 032 of: each may
// fall, never rise (DESIGN.md §9). They were 256, 24 and 16 with the fault
// state in the hot record and a 64-bit VC and due cycle per staged item.
func TestComponentSizePin(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, pin uintptr
	}{
		{"Link", unsafe.Sizeof(Link{}), 184},
		{"inflightFlit", unsafe.Sizeof(inflightFlit{}), 16},
		{"inflightCredit", unsafe.Sizeof(inflightCredit{}), 8},
	} {
		if c.size > c.pin {
			t.Errorf("%s is %d bytes, pin %d", c.name, c.size, c.pin)
		}
	}
}

// TestLinkDueCyclesAcrossTheWrap stages a flit and a credit whose narrowed
// due cycles wrap past 2³², checks they are delivered in the cycle they are
// due, that the state encoding writes and reads their full cycles, and that
// loading refuses a due cycle the link's latency cannot produce.
func TestLinkDueCyclesAcrossTheWrap(t *testing.T) {
	const now = 1<<32 - 2
	down, up := &captureSink{}, &captureCredit{}
	l := newLink(Name{label: "w"}, 3, down, up)
	l.Send(&flit.Flit{Type: flit.HeadTail, PT: flit.Unicast, PacketID: 9}, 1, now) // due 2³²+1
	l.ReturnCredit(2, now)                                                         // due 2³²-1

	var e flit.Encoder
	e.ResetAbsolute(nil)
	e.SetNow(now + 1)
	l.AppendState(&e)
	state := append([]byte(nil), e.Bytes()...)

	var d flit.Decoder
	d.Reset(state, 4, 4)
	d.SetNow(now + 1)
	back := newLink(Name{label: "w"}, 3, &captureSink{}, &captureCredit{})
	if err := back.LoadState(&d, nil, 4); err != nil {
		t.Fatalf("loading the link's own state: %v", err)
	}
	e.ResetAbsolute(nil)
	e.SetNow(now + 1)
	back.AppendState(&e)
	if string(e.Bytes()) != string(state) {
		t.Fatal("a loaded link encodes other bytes than the one it was taken from")
	}

	for c := int64(now + 1); c <= now+3; c++ {
		l.Commit(c)
		if got, want := len(down.flits), 0; c < now+3 && got != want {
			t.Fatalf("cycle %d: %d flits delivered before the flit is due", c, got)
		}
		if got := len(up.vcs); c == now+1 && got != 1 {
			t.Fatalf("cycle %d: %d credits delivered, want the one due", c, got)
		}
	}
	if len(down.flits) != 1 {
		t.Fatalf("the flit due in cycle 2³²+1 was not delivered then (%d delivered)", len(down.flits))
	}

	late := newLink(Name{label: "w"}, 3, &captureSink{}, &captureCredit{})
	e.ResetAbsolute(nil)
	e.Uint(0)     // flits carried
	e.Uint(0)     // credits carried
	e.Uint(0)     // no owed credits
	e.Bool(false) // something on the wire
	e.Uint(1)
	(&flit.Flit{Type: flit.HeadTail, PT: flit.Unicast, PacketID: 9}).AppendState(&e)
	e.Int(1)
	e.Cycle(now + 1 + 4) // one cycle more than the latency
	e.Uint(0)
	d.Reset(e.Bytes(), 4, 4)
	d.SetNow(now + 1)
	if err := late.LoadState(&d, nil, 4); err == nil {
		t.Fatal("loaded a flit due past the link's latency")
	}
}
