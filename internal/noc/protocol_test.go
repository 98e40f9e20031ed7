package noc

import (
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// TestGatherStationFullFallsBack fills a router's Gather Payload station
// beyond capacity; the NIC must self-initiate immediately for the overflow
// payload and everything must still be delivered exactly once.
func TestGatherStationFullFallsBack(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Router.GatherQueueCap = 1
	cfg.Delta = 1000 // timeouts must not fire; only the overflow path.
	nw := mustNetwork(t, cfg)
	row := 0
	dst := nw.RowSinkID(row)
	got := map[uint64]int{}
	nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) {
		for _, pl := range p.Payloads {
			got[pl.Seq]++
		}
	})

	// Two payloads at the same node: the second overflows the station.
	id := nw.Topology().ID(topology.Coord{Row: row, Col: 2})
	n := nw.NIC(id)
	n.SubmitPayload(reduce.GatherStation, 0, flitPayloadAt(1, id, dst))
	n.SubmitPayload(reduce.GatherStation, 0, flitPayloadAt(2, id, dst))
	if n.SelfInitiatedGathers.Value() != 1 {
		t.Fatalf("overflow payload did not self-initiate (count=%d)",
			n.SelfInitiatedGathers.Value())
	}
	// A gather packet from the row start eventually collects the first.
	left := nw.Topology().ID(topology.Coord{Row: row, Col: 0})
	own := flitPayloadAt(3, left, dst)
	nw.NIC(left).SendGather(0, dst, &own)

	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d payloads, want 3 (%v)", len(got), got)
	}
	for s, c := range got {
		if c != 1 {
			t.Errorf("payload %d delivered %d times", s, c)
		}
	}
}

// TestGatherTimeoutWhileReserved arranges for the δ deadline to pass while
// the payload is already reserved by an in-flight packet: the retract must
// fail and the payload must still arrive exactly once via the packet.
func TestGatherTimeoutWhileReserved(t *testing.T) {
	cfg := DefaultConfig(1, 8)
	cfg.Delta = 1 // deadline passes almost immediately
	nw := mustNetwork(t, cfg)
	dst := nw.RowSinkID(0)
	got := map[uint64]int{}
	nw.Sink(0).OnReceive(func(p *nic.ReceivedPacket) {
		for _, pl := range p.Payloads {
			got[pl.Seq]++
		}
	})

	// Start the gather packet first so it is already in flight when the
	// payload shows up with a nearly expired deadline.
	own := flitPayloadAt(1, 0, dst)
	nw.NIC(0).SendGather(0, dst, &own)
	// Head reaches router 5's RC at about cycle 2+5κ; deposit the payload
	// just before so reservation happens within a cycle or two of the
	// deadline.
	eng := nw.Engine()
	for eng.Cycle() < 21 {
		eng.Step()
	}
	id := topology.NodeID(5)
	nw.NIC(id).SubmitPayload(reduce.GatherStation, 0, flitPayloadAt(2, id, dst))

	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d payloads, want 2", len(got))
	}
	for s, c := range got {
		if c != 1 {
			t.Errorf("payload %d delivered %d times", s, c)
		}
	}
}

// fallbackDelay offers one gather payload at node id toward its row's sink,
// where no gather packet will pass, and returns how many cycles the NIC
// waited before self-initiating: its δ.
func fallbackDelay(t *testing.T, nw *Network, id topology.NodeID) int64 {
	t.Helper()
	n := nw.NIC(id)
	before, start := n.SelfInitiatedGathers.Value(), nw.Engine().Cycle()
	n.SubmitPayload(reduce.GatherStation, 0, flitPayloadAt(1, id, nw.RowSinkID(nw.Topology().Coord(id).Row)))
	end, err := nw.Engine().RunUntil(func() bool { return n.SelfInitiatedGathers.Value() > before }, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunUntilQuiescent(100_000); err != nil {
		t.Fatal(err)
	}
	return end - start - 1 // the fallback fires in the tick at the deadline
}

// TestSetDeltaIgnoresNegative pins the defensive behavior of SetDelta.
func TestSetDeltaIgnoresNegative(t *testing.T) {
	nw := mustNetwork(t, DefaultConfig(2, 2))
	nw.NIC(0).SetDelta(42)
	nw.NIC(0).SetDelta(-5)
	if got := fallbackDelay(t, nw, 0); got != 42 {
		t.Errorf("δ = %d after SetDelta(42), SetDelta(-5); want 42", got)
	}
}

// TestSinkPacketOverheadSerializes pins the buffer-transaction model: with
// a large per-packet cost, back-to-back packets drain no faster than the
// cost allows.
func TestSinkPacketOverheadSerializes(t *testing.T) {
	cfg := DefaultConfig(1, 4)
	cfg.SinkPacketOverhead = 20
	nw := mustNetwork(t, cfg)
	dst := nw.RowSinkID(0)
	var arrivals []int64
	nw.Sink(0).OnReceive(func(p *nic.ReceivedPacket) {
		arrivals = append(arrivals, p.TailArrival)
	})
	// Two packets from the node adjacent to the sink.
	nw.NIC(3).SendUnicastN(0, dst, 2)
	nw.NIC(3).SendUnicastN(0, dst, 2)
	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	if gap := arrivals[1] - arrivals[0]; gap < 20 {
		t.Errorf("packet gap = %d cycles, want >= 20 (transaction stall)", gap)
	}
}

// TestEjectorOverflowPanics documents that a credit-protocol violation at
// an ejection point is treated as an internal bug.
func TestEjectorOverflowPanics(t *testing.T) {
	e := nic.NewEjector(link.Numbered("t", 0), 1, 1, 1)
	e.AcceptFlit(&flit.Flit{Type: flit.HeadTail, PacketFlits: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	e.AcceptFlit(&flit.Flit{Type: flit.HeadTail, PacketFlits: 1}, 0)
}
