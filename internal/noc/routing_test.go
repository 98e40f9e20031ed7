package noc

import (
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

func TestWestFirstRoutingDelivers(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Routing = "westfirst"
	nw := mustNetwork(t, cfg)

	received := map[topology.NodeID]int{}
	for id := 0; id < nw.Topology().NumNodes(); id++ {
		id := topology.NodeID(id)
		nw.NIC(id).OnReceive(func(p *nic.ReceivedPacket) { received[id]++ })
	}
	// All-to-one plus scattered pairs, covering west-exclusive and
	// adaptive quadrants.
	pairs := [][2]topology.NodeID{
		{0, 15}, {15, 0}, {3, 12}, {12, 3}, {5, 10}, {10, 5}, {1, 14}, {7, 8},
	}
	for _, pr := range pairs {
		nw.NIC(pr[0]).SendUnicastN(0, pr[1], 2)
	}
	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		if received[pr[1]] < 1 {
			t.Errorf("packet %d->%d not delivered", pr[0], pr[1])
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWestFirstGatherStillWorks(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Routing = "westfirst"
	nw := mustNetwork(t, cfg)
	row := 1
	dst := nw.RowSinkID(row)
	payloads := 0
	nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) { payloads += len(p.Payloads) })

	for c := 1; c < 4; c++ {
		id := nw.Topology().ID(topology.Coord{Row: row, Col: c})
		nw.NIC(id).SetDelta(cfg.Delta * int64(1+c))
		nw.NIC(id).SubmitPayload(reduce.GatherStation, 0, flitPayloadAt(uint64(c), id, dst))
	}
	left := nw.Topology().ID(topology.Coord{Row: row, Col: 0})
	own := flitPayloadAt(0, left, dst)
	nw.NIC(left).SendGather(0, dst, &own)

	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if payloads != 4 {
		t.Errorf("payloads = %d, want 4", payloads)
	}
}

func TestWestFirstHotspotDrains(t *testing.T) {
	// Heavy many-to-one load under adaptive routing: must stay
	// deadlock-free (west-first turn model) and drain.
	cfg := DefaultConfig(4, 4)
	cfg.Routing = "westfirst"
	nw := mustNetwork(t, cfg)
	count := 0
	nw.NIC(0).OnReceive(func(p *nic.ReceivedPacket) { count++ })
	for id := 1; id < nw.Topology().NumNodes(); id++ {
		for k := 0; k < 4; k++ {
			nw.NIC(topology.NodeID(id)).SendUnicastN(0, 0, 4)
		}
	}
	if _, err := nw.RunUntilQuiescent(200000); err != nil {
		t.Fatal(err)
	}
	if count != 15*4 {
		t.Errorf("delivered %d, want %d", count, 60)
	}
}

func TestRoutingConfigValidation(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Routing = "zigzag"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown routing accepted")
	}
	for _, algo := range []string{"", "xy", "westfirst"} {
		cfg.Routing = algo
		if err := cfg.Validate(); err != nil {
			t.Errorf("routing %q rejected: %v", algo, err)
		}
	}
}

// flitPayloadAt builds a tagged payload for routing tests.
func flitPayloadAt(seq uint64, src, dst topology.NodeID) flit.Payload {
	return flit.Payload{Seq: seq, Src: src, Dst: dst, Bits: 32, Value: seq}
}
