package flit

import "testing"

func TestPoolReusesFlits(t *testing.T) {
	p := NewPool()
	f := p.Acquire()
	f.PacketID = 42
	f.Payloads = append(f.Payloads, Payload{Seq: 1})
	p.Release(f)
	g := p.Acquire()
	if g != f {
		t.Fatal("pool did not reuse the released flit")
	}
	if g.PacketID != 0 || len(g.Payloads) != 0 {
		t.Fatalf("reused flit not reset: %+v", g)
	}
	if cap(g.Payloads) == 0 {
		t.Error("release dropped the payload backing array")
	}
	if p.Misses() != 1 {
		t.Errorf("Misses = %d, want 1 (one cold acquire)", p.Misses())
	}
}

// TestPoolMissesAllocateBlocks: misses hand out distinct zeroed flits cut
// from blocks that double with the misses, so 100 cold acquires cost the
// pool and four blocks (16, 16, 32 and 64 flits), not 100 allocations.
func TestPoolMissesAllocateBlocks(t *testing.T) {
	var p *Pool
	fs := make([]*Flit, 100)
	allocs := testing.AllocsPerRun(1, func() {
		p = NewPool()
		for i := range fs {
			fs[i] = p.Acquire()
		}
	})
	seen := map[*Flit]bool{}
	for i, f := range fs {
		if seen[f] || f.PacketID != 0 {
			t.Fatalf("acquire %d: flit handed out twice or not zeroed", i)
		}
		seen[f] = true
		f.PacketID = uint64(i + 1)
	}
	if p.Misses() != 100 {
		t.Errorf("Misses = %d, want 100", p.Misses())
	}
	if allocs != 5 {
		t.Errorf("100 cold acquires allocated %.0f times, want 5: the pool and four blocks", allocs)
	}
}

func TestNilPoolDegradesToHeap(t *testing.T) {
	var p *Pool
	f := p.Acquire()
	if f == nil {
		t.Fatal("nil pool returned nil flit")
	}
	p.Release(f) // must not panic
	if p.Live() != 0 || p.Misses() != 0 {
		t.Error("nil pool reported nonzero stats")
	}
}

func TestPoolDebugCatchesDoubleRelease(t *testing.T) {
	p := NewPool()
	p.SetDebug(true)
	f := p.Acquire()
	p.Release(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release(f)
}

func TestPoolDebugCatchesForeignRelease(t *testing.T) {
	p := NewPool()
	p.SetDebug(true)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a foreign flit did not panic")
		}
	}()
	p.Release(&Flit{})
}

func TestPoolLiveTracksOutstanding(t *testing.T) {
	for _, debug := range []bool{false, true} {
		p := NewPool()
		p.SetDebug(debug)
		a, b := p.Acquire(), p.Acquire()
		if p.Live() != 2 {
			t.Fatalf("debug=%v: Live = %d, want 2", debug, p.Live())
		}
		p.Release(a)
		if p.Live() != 1 {
			t.Fatalf("debug=%v: Live = %d, want 1", debug, p.Live())
		}
		p.Release(b)
		if p.Live() != 0 {
			t.Fatalf("debug=%v: Live = %d, want 0 (leak)", debug, p.Live())
		}
	}
}

// TestPacketizeIntoPoolRoundTrip checks that packetizing from a pool and
// releasing every flit leaves nothing outstanding, and that the packet
// backing slice is reused.
func TestPacketizeIntoPoolRoundTrip(t *testing.T) {
	p := NewPool()
	p.SetDebug(true)
	format := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64)
	var scratch []*Flit
	for i := 0; i < 3; i++ {
		flits, err := PacketizeInto(scratch[:0], Packet{
			ID: uint64(i + 1), PT: Unicast, Src: 1, Dst: 2, Flits: 3,
		}, format, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(flits) != 3 {
			t.Fatalf("len = %d, want 3", len(flits))
		}
		for _, f := range flits {
			p.Release(f)
		}
		scratch = flits
	}
	if p.Live() != 0 {
		t.Fatalf("Live = %d after releasing everything", p.Live())
	}
	if p.Misses() != 3 {
		t.Errorf("Misses = %d, want 3 (first packet only)", p.Misses())
	}
}

// TestPacketizeIntoReleasesOnError checks the error path returns acquired
// flits to the pool instead of leaking them.
func TestPacketizeIntoReleasesOnError(t *testing.T) {
	p := NewPool()
	p.SetDebug(true)
	// A zero Format offers no payload slots, so a gather packet carrying
	// its own payload fails after its flits were acquired.
	_, err := PacketizeInto(nil, Packet{
		ID: 9, PT: Gather, Flits: 2, GatherCapacity: 1,
		Carried: &Payload{Seq: 1},
	}, &Format{}, p)
	if err == nil {
		t.Skip("format accepted the payload; error path not reachable here")
	}
	if p.Live() != 0 {
		t.Fatalf("error path leaked %d flits", p.Live())
	}
}

// TestPooledFlitTakesAGatherBodyInOneAllocation: a pooled flit whose payload
// list last held a unicast tail's one payload grows it once, straight to the
// slot count, when it comes back as a gather body and fills every slot;
// growing by append's doubling took two (capacity 1, 2, 4 for 3 slots).
func TestPooledFlitTakesAGatherBodyInOneAllocation(t *testing.T) {
	slots := MustFormat(DefaultFlitBits, DefaultPayloadBits, 64).SlotsPerFlit()
	if slots < 3 {
		t.Fatalf("%d slots per flit; the case needs at least 3", slots)
	}
	p := NewPool()
	p.Release(p.Acquire())
	// AllocsPerRun calls the function once more than it counts; each call
	// takes the list a released unicast tail leaves behind.
	tails := make([][]Payload, 101)
	for i := range tails {
		tails[i] = make([]Payload, 0, 1)
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		f := p.Acquire()
		f.Payloads, f.Type, f.SlotCap = tails[n], Body, slots
		n++
		for s := 0; s < slots; s++ {
			if !f.AddPayload(Payload{Seq: uint64(s)}) {
				t.Fatalf("slot %d of %d refused", s, slots)
			}
		}
		if cap(f.Payloads) < slots {
			t.Fatalf("capacity %d after %d payloads", cap(f.Payloads), slots)
		}
		p.Release(f)
	})
	if allocs > 1 {
		t.Errorf("filling a %d-slot body from a one-payload list allocated %.0f times, want at most 1", slots, allocs)
	}
}
