package noc

import (
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// TestFlitPoolLeakFreedom runs a mixed workload (unicast, multicast,
// gather, accumulate) with the pool's ownership checker on and asserts
// that a drained network holds zero outstanding flits: every acquire has a
// matching release, whatever path the flit took (ejection, multicast fork,
// edge sink).
func TestFlitPoolLeakFreedom(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.EnableINA = true
	cfg.DebugFlitPool = true
	nw := mustNetwork(t, cfg)

	// Unicast and multicast across the mesh.
	nw.NIC(0).SendUnicastN(0, 15, 3)
	nw.NIC(5).SendUnicastN(0, 2, 1)
	set := topology.NewDestSet(16)
	set.Add(3)
	set.Add(12)
	set.Add(10)
	nw.NIC(1).SendMulticast(0, set, 2)

	// A gather row with piggybacked payloads.
	dst := nw.RowSinkID(0)
	for col := 1; col < 4; col++ {
		id := nw.Topology().ID(topology.Coord{Row: 0, Col: col})
		nw.NIC(id).SetDelta(5 * int64(1+col))
		nw.NIC(id).SubmitPayload(reduce.GatherStation, 0, flit.Payload{Seq: uint64(col), Src: id, Dst: dst, Bits: 32})
	}
	left := nw.Topology().ID(topology.Coord{Row: 0, Col: 0})
	own := flit.Payload{Seq: 99, Src: left, Dst: dst, Bits: 32}
	nw.NIC(left).SendGather(0, dst, &own)

	// An accumulate row with in-network merges.
	rdst := nw.RowSinkID(1)
	const rid = uint64(7) << 32
	for col := 1; col < 4; col++ {
		id := nw.Topology().ID(topology.Coord{Row: 1, Col: col})
		nw.NIC(id).SetDelta(5 * int64(1+col))
		nw.NIC(id).SubmitPayload(reduce.ReduceStation, 0, flit.Payload{
			Seq: 100 + uint64(col), Src: id, Dst: rdst, Bits: 32, Value: uint64(col), ReduceID: rid, Ops: 1,
		})
	}
	rleft := nw.Topology().ID(topology.Coord{Row: 1, Col: 0})
	nw.NIC(rleft).SendAccumulate(0, rdst, rid, flit.Payload{
		Seq: 200, Src: rleft, Dst: rdst, Bits: 32, Value: 5, ReduceID: rid, Ops: 1,
	})

	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if live := nw.FlitPool().Live(); live != 0 {
		t.Fatalf("drained network holds %d leaked flits", live)
	}
	if nw.FlitPool().Misses() == 0 {
		t.Fatal("pool never allocated — workload did not exercise it")
	}
}
