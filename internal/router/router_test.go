package router

import (
	"errors"
	"testing"
	"unsafe"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		wantOK bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero vcs", func(c *Config) { c.VCs = 0 }, false},
		{"one vc", func(c *Config) { c.VCs = 1 }, true},
		{"vcs at mask width", func(c *Config) { c.VCs = maxVCs }, true},
		{"vcs past mask width", func(c *Config) { c.VCs = maxVCs + 1 }, false},
		{"zero depth", func(c *Config) { c.BufferDepth = 0 }, false},
		{"depth at a byte", func(c *Config) { c.BufferDepth = maxDepth }, true},
		{"depth past a byte", func(c *Config) { c.BufferDepth = maxDepth + 1 }, false},
		{"zero rc", func(c *Config) { c.RCDelay = 0 }, false},
		{"zero va", func(c *Config) { c.VADelay = 0 }, false},
		{"rc at a byte", func(c *Config) { c.RCDelay = maxDelay }, true},
		{"rc past a byte", func(c *Config) { c.RCDelay = maxDelay + 1 }, false},
		{"va past a byte", func(c *Config) { c.VADelay = maxDelay + 1 }, false},
		{"gather vc out of range", func(c *Config) { c.GatherVC = 4 }, false},
		{"gather vc in range", func(c *Config) { c.GatherVC = 3 }, true},
		{"vc classes zero value", func(c *Config) { c.VCClasses = 0 }, true},
		{"vc classes dateline", func(c *Config) { c.VCClasses = 2 }, true},
		{"vc classes exceed vcs", func(c *Config) { c.VCClasses = 5 }, false},
		{"vc classes negative", func(c *Config) { c.VCClasses = -1 }, false},
		{"vc classes vs gather vc", func(c *Config) { c.VCClasses = 2; c.GatherVC = 3 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.wantOK {
				t.Errorf("Validate() err = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
	cfg := DefaultConfig()
	cfg.VCs = maxVCs + 1
	if err := cfg.Validate(); !errors.Is(err, ErrTooManyVCs) {
		t.Errorf("Validate() with %d VCs = %v, want ErrTooManyVCs", cfg.VCs, err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.BufferDepth = maxDepth + 1 },
		func(c *Config) { c.RCDelay = maxDelay + 1 },
		func(c *Config) { c.VADelay = maxDelay + 1 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Validate() of %+v = %v, want ErrOutOfRange", cfg, err)
		}
	}
}

// TestVCClassPartition pins the dateline VC partition arithmetic: with C
// classes over V VCs, VC v belongs to class v*C/V, each class non-empty.
func TestVCClassPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCClasses = 2
	r, err := newRouter(0, cfg, func(topology.NodeID, *flit.Flit) Route { return Route{} })
	if err != nil {
		t.Fatal(err)
	}
	for vc, want := range []int{0, 0, 1, 1} {
		for class := 0; class < 2; class++ {
			got := r.vcAllowed(flit.Unicast, vc, cfg.VCs, class, true)
			if got != (class == want) {
				t.Errorf("vcAllowed(vc=%d, class=%d) = %v, want %v", vc, class, got, class == want)
			}
			// The ejection channel (datelined=false) is a dependency-graph
			// sink: no partition applies there even with VCClasses set.
			if !r.vcAllowed(flit.Unicast, vc, cfg.VCs, class, false) {
				t.Errorf("ejection vcAllowed(vc=%d, class=%d) = false", vc, class)
			}
		}
	}
	// Single-class configs ignore the partition entirely.
	cfg.VCClasses = 1
	r1, err := newRouter(0, cfg, func(topology.NodeID, *flit.Flit) Route { return Route{} })
	if err != nil {
		t.Fatal(err)
	}
	for vc := 0; vc < cfg.VCs; vc++ {
		if !r1.vcAllowed(flit.Unicast, vc, cfg.VCs, 0, true) {
			t.Errorf("single-class vcAllowed(vc=%d) = false", vc)
		}
	}
}

func TestRRArbiterFairness(t *testing.T) {
	a := &rrArbiter{n: 3}
	always := func(i int) bool { return true }
	got := []int{a.pick(always), a.pick(always), a.pick(always), a.pick(always)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestRRArbiterSkipsNonRequesters(t *testing.T) {
	a := &rrArbiter{n: 4}
	only2 := func(i int) bool { return i == 2 }
	if got := a.pick(only2); got != 2 {
		t.Fatalf("pick = %d, want 2", got)
	}
	if got := a.pick(func(i int) bool { return false }); got != -1 {
		t.Fatalf("pick = %d, want -1", got)
	}
	if got := (&rrArbiter{}).pick(only2); got != -1 {
		t.Fatalf("empty arbiter pick = %d, want -1", got)
	}
}

func TestGatherStationLifecycle(t *testing.T) {
	// The gather payload station is the shared reduce.Station with
	// destination-only reservation; this pins the gather-facing contract
	// through the router's own API surface.
	s := reduce.NewStation(2, reduce.GatherStation)
	acked := 0
	s.SetOwner(ackFunc(func(k reduce.Kind, p flit.Payload) {
		if k == reduce.GatherStation && p.Seq == 1 {
			acked++
		}
	}))
	p1 := flit.Payload{Seq: 1, Dst: 9}
	p2 := flit.Payload{Seq: 2, Dst: 9}
	if !s.Offer(p1) {
		t.Fatal("offer p1 failed")
	}
	if !s.Offer(p2) {
		t.Fatal("offer p2 failed")
	}
	if s.Offer(flit.Payload{Seq: 3}) {
		t.Fatal("offer beyond capacity accepted")
	}

	// Reservation matches on destination and is FIFO by age; the holder
	// finds its entry again.
	if s.Reserve(8, 0, 0) {
		t.Fatal("reserved payload for wrong dst")
	}
	ok := s.Reserve(9, 0, 3)
	if e, held := s.Held(3); !ok || !held || e.Seq != 1 {
		t.Fatalf("reserve = %+v, %v; want seq 1", e, ok)
	}

	// Reserved payloads cannot be retracted; pending ones can.
	if s.Retract(1) {
		t.Fatal("retracted a reserved payload")
	}
	if !s.Retract(2) {
		t.Fatal("failed to retract pending payload")
	}
	if s.Retract(2) {
		t.Fatal("double retract succeeded")
	}

	// Completion removes the entry and fires the ack.
	s.Complete(3)
	if acked != 1 {
		t.Fatalf("acks = %d, want 1", acked)
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog = %d, want 0", s.Backlog())
	}
}

func TestGatherStationRelease(t *testing.T) {
	s := reduce.NewStation(1, reduce.GatherStation)
	s.Offer(flit.Payload{Seq: 5, Dst: 3})
	s.Reserve(3, 0, 0)
	s.Release(0)
	if _, held := s.Held(0); held {
		t.Fatal("released payload still held")
	}
	if !s.Retract(5) {
		t.Fatal("released payload not retractable")
	}
}

// twoRouterHarness wires routerA's east port to routerB's west port and
// collects whatever B would forward to its local port, letting pipeline
// timing be asserted precisely without the full network.
type twoRouterHarness struct {
	a, b  *Router
	ab    *link.Link
	eject *link.Link
	got   []*flit.Flit
	cycle int64
}

type harnessSink struct{ h *twoRouterHarness }

func (s *harnessSink) AcceptFlit(f *flit.Flit, vc int) { s.h.got = append(s.h.got, f) }

func newTwoRouterHarness(t *testing.T, cfg Config) *twoRouterHarness {
	t.Helper()
	mesh := topology.MustMesh(1, 2)
	routeFn := func(cur topology.NodeID, f *flit.Flit) Route {
		return Route{Branches: []topology.MulticastBranch{{Out: mesh.XYRoute(cur, f.Dst)}}}
	}
	a, err := newRouter(0, cfg, routeFn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRouter(1, cfg, routeFn)
	if err != nil {
		t.Fatal(err)
	}
	h := &twoRouterHarness{a: a, b: b}
	h.ab = link.NewSlab(1, 1).New(link.Numbered("ab", 0), 1, b.InputSink(topology.WestPort), a.CreditSink(topology.EastPort))
	a.ConnectOutput(topology.EastPort, h.ab, cfg.BufferDepth)
	b.ConnectInput(topology.WestPort, h.ab)
	h.eject = link.NewSlab(1, 1).New(link.Numbered("bl", 0), 1, &harnessSink{h}, b.CreditSink(topology.LocalPort))
	b.ConnectOutput(topology.LocalPort, h.eject, cfg.BufferDepth)
	return h
}

func (h *twoRouterHarness) step() {
	h.a.Tick(h.cycle)
	h.b.Tick(h.cycle)
	h.ab.Commit(h.cycle)
	h.eject.Commit(h.cycle)
	h.cycle++
}

// inject places a flit directly into A's local input buffer, as the
// injection link would.
func (h *twoRouterHarness) inject(f *flit.Flit, vc int) {
	h.a.InputSink(topology.LocalPort).AcceptFlit(f, vc)
}

func TestRouterPipelineLatency(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)

	// A 2-flit unicast packet from node 0 to node 1.
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)
	flits, err := flit.PacketizeInto(nil, flit.Packet{ID: 1, PT: flit.Unicast, Src: 0, Dst: 1, Flits: 2}, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.inject(flits[0], 0)
	h.inject(flits[1], 0)

	headAt := int64(-1)
	tailAt := int64(-1)
	for h.cycle < 40 && tailAt < 0 {
		h.step()
		for _, f := range h.got {
			if f.Type == flit.Head && headAt < 0 {
				headAt = h.cycle
			}
			if f.Type == flit.Tail {
				tailAt = h.cycle
			}
		}
		h.got = h.got[:0]
	}
	if headAt < 0 || tailAt < 0 {
		t.Fatal("packet did not arrive")
	}
	// Head visible in A at cycle 0; per hop: RC(1)+VA(1)+SA/ST(1)+link(1)=4.
	// Two router traversals (A then B's ejection) deliver the head into the
	// local sink during commit of cycle 7, i.e. after step() with cycle 7.
	if headAt != 8 {
		t.Errorf("head delivered after cycle %d, want 8", headAt)
	}
	// Tail follows one cycle behind.
	if tailAt != headAt+1 {
		t.Errorf("tail at %d, want head+1 = %d", tailAt, headAt+1)
	}
}

func TestRouterGatherPickupInFlight(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)

	// Router B holds a payload for destination 1 (its own PE's result).
	uploaded := false
	h.b.SetStationOwner(ackFunc(func(reduce.Kind, flit.Payload) { uploaded = true }))
	if !h.b.Offer(reduce.GatherStation, flit.Payload{Seq: 7, Src: 1, Dst: 1, Value: 77}) {
		t.Fatal("offer rejected")
	}

	// A gather packet from node 0 to node 1 with spare capacity.
	own := &flit.Payload{Seq: 1, Src: 0, Dst: 1, Value: 11}
	flits, err := flit.PacketizeInto(nil, flit.Packet{
		ID: 2, PT: flit.Gather, Src: 0, Dst: 1,
		Flits: format.GatherFlits(4), GatherCapacity: 4, Carried: own,
	}, format, nil)

	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flits {
		h.inject(f, 0)
	}

	var tail *flit.Flit
	for h.cycle < 60 && tail == nil {
		h.step()
		for _, f := range h.got {
			if f.IsTail() {
				tail = f
			}
		}
	}
	if tail == nil {
		t.Fatal("gather packet did not arrive")
	}
	if !uploaded {
		t.Error("payload at intermediate router was not uploaded")
	}
	if h.b.Counters.GatherUploads.Value() != 1 {
		t.Errorf("GatherUploads = %d, want 1", h.b.Counters.GatherUploads.Value())
	}
	// Both payloads must arrive: the initiator's and router B's.
	var values []uint64
	for _, f := range h.got {
		for _, p := range f.Payloads {
			values = append(values, p.Value)
		}
	}
	if len(values) != 2 {
		t.Fatalf("payloads delivered = %v, want 2 values", values)
	}
	seen := map[uint64]bool{}
	for _, v := range values {
		seen[v] = true
	}
	if !seen[11] || !seen[77] {
		t.Errorf("payload values = %v, want {11,77}", values)
	}
}

func TestRouterGatherSkipsFullPacket(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)

	uploaded := false
	h.b.SetStationOwner(ackFunc(func(reduce.Kind, flit.Payload) { uploaded = true }))
	h.b.Offer(reduce.GatherStation, flit.Payload{Seq: 9, Src: 1, Dst: 1, Value: 99})

	// Capacity 1 gather packet already carrying its initiator's payload:
	// ASpace is 0 when it reaches B, so B must not reserve or upload.
	own := &flit.Payload{Seq: 1, Src: 0, Dst: 1, Value: 11}
	flits, err := flit.PacketizeInto(nil, flit.Packet{
		ID: 3, PT: flit.Gather, Src: 0, Dst: 1,
		Flits: format.GatherFlits(1), GatherCapacity: 1, Carried: own,
	}, format, nil)

	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flits {
		h.inject(f, 0)
	}
	for h.cycle < 60 {
		h.step()
	}
	if uploaded {
		t.Error("payload uploaded into a zero-ASpace packet")
	}
	if h.b.Backlog(reduce.GatherStation) != 1 {
		t.Errorf("backlog = %d, want 1 (payload still waiting)", h.b.Backlog(reduce.GatherStation))
	}
}

func TestRouterCountersAdvance(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)
	flits, _ := flit.PacketizeInto(nil, flit.Packet{ID: 1, PT: flit.Unicast, Src: 0, Dst: 1, Flits: 2}, format, nil)
	for _, f := range flits {
		h.inject(f, 0)
	}
	for h.cycle < 20 {
		h.step()
	}
	c := &h.a.Counters
	if c.BufferWrites.Value() != 2 || c.BufferReads.Value() != 2 {
		t.Errorf("buffer writes/reads = %d/%d, want 2/2",
			c.BufferWrites.Value(), c.BufferReads.Value())
	}
	if c.RCComputations.Value() != 1 || c.VAAllocations.Value() != 1 {
		t.Errorf("RC/VA = %d/%d, want 1/1",
			c.RCComputations.Value(), c.VAAllocations.Value())
	}
	if c.Crossings.Value() != 2 {
		t.Errorf("Crossings = %d, want 2", c.Crossings.Value())
	}
}

func TestNewRouterRejectsBadInputs(t *testing.T) {
	if _, err := newRouter(0, Config{}, nil); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := newRouter(0, DefaultConfig(), nil); err == nil {
		t.Error("nil routing func accepted")
	}
}

// newRouter returns a router with a slab of its own.
func newRouter(id topology.NodeID, cfg Config, routeFn RoutingFunc) (*Router, error) {
	s, err := NewSlab(cfg, 1)
	if err != nil {
		return nil, err
	}
	return s.New(id, routeFn)
}

// ackFunc is a station owner made of a function.
type ackFunc func(reduce.Kind, flit.Payload)

func (f ackFunc) Acked(k reduce.Kind, op flit.Payload) { f(k, op) }

// TestComponentSizePin pins the bytes of a router and of its per-VC record,
// which a 32x32 fabric holds 1 024 and 20 480 of: each may fall, never
// rise (DESIGN.md §9). They were 1 416 and 120 when counters, indices and
// the VC ring were word-sized and the cold fields sat in the hot record.
func TestComponentSizePin(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, pin uintptr
	}{
		{"Router", unsafe.Sizeof(Router{}), 504},
		{"inputVC", unsafe.Sizeof(inputVC{}), 22},
	} {
		if c.size > c.pin {
			t.Errorf("%s is %d bytes, pin %d", c.name, c.size, c.pin)
		}
	}
}
