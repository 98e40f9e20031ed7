package noc

import (
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// reduceOperandAt builds an INA operand.
func reduceOperandAt(seq uint64, src, dst topology.NodeID, reduceID, value uint64) flit.Payload {
	return flit.Payload{Seq: seq, Src: src, Dst: dst, ReduceID: reduceID, Value: value, Ops: 1}
}

// TestINARowReduction drives one full-row reduction end to end: the
// leftmost PE launches an accumulate packet, every other PE offers its
// operand, and the sink must receive exactly one 2-flit packet whose
// accumulator carries the bit-exact row sum.
func TestINARowReduction(t *testing.T) {
	cfg := DefaultConfig(1, 8)
	cfg.EnableINA = true
	nw := mustNetwork(t, cfg)
	dst := nw.RowSinkID(0)

	var pkts []*nic.ReceivedPacket
	nw.Sink(0).OnReceive(func(p *nic.ReceivedPacket) { pkts = append(pkts, p.Clone()) })

	const rid = uint64(3) << 32
	want := uint64(0)
	for col := 1; col < 8; col++ {
		id := topology.NodeID(col)
		v := uint64(col) * 1_000_003
		want += v
		nw.NIC(id).SetDelta(5 * int64(1+col))
		nw.NIC(id).SubmitPayload(reduce.ReduceStation, 0, reduceOperandAt(uint64(col), id, dst, rid, v))
	}
	own := reduceOperandAt(100, 0, dst, rid, 17)
	want += 17
	nw.NIC(0).SendAccumulate(0, dst, rid, own)

	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 {
		t.Fatalf("sink received %d packets, want 1", len(pkts))
	}
	p := pkts[0]
	if p.PT != flit.Accumulate || p.Flits != flit.AccumulateFlits {
		t.Errorf("packet = %s %d flits, want A %d", p.PT, p.Flits, flit.AccumulateFlits)
	}
	if len(p.Payloads) != 1 {
		t.Fatalf("packet carries %d payloads, want 1 accumulator", len(p.Payloads))
	}
	acc := p.Payloads[0]
	if acc.Value != want {
		t.Errorf("row sum = %d, want %d", acc.Value, want)
	}
	if acc.Ops != 8 {
		t.Errorf("ops = %d, want 8", acc.Ops)
	}
	if got := nw.Activity().ReduceMerges; got != 7 {
		t.Errorf("ReduceMerges = %d, want 7", got)
	}
}

// TestINATimeoutSelfInitiates delays no packet past a tiny δ: the operand
// must be retracted and arrive via a self-initiated accumulate packet, and
// the total across packets must still be exact.
func TestINATimeoutSelfInitiates(t *testing.T) {
	cfg := DefaultConfig(1, 8)
	cfg.EnableINA = true
	nw := mustNetwork(t, cfg)
	dst := nw.RowSinkID(0)

	sum := uint64(0)
	ops := 0
	nw.Sink(0).OnReceive(func(p *nic.ReceivedPacket) {
		for _, pl := range p.Payloads {
			sum += pl.Value
			ops += pl.OpsCount()
		}
	})

	// No accumulate packet is ever launched toward this operand: δ expires
	// and the NIC must self-initiate.
	id := topology.NodeID(5)
	nw.NIC(id).SetDelta(3)
	nw.NIC(id).SubmitPayload(reduce.ReduceStation, 0, reduceOperandAt(1, id, dst, 9, 123))

	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if got := nw.NIC(id).SelfInitiatedReduces.Value(); got != 1 {
		t.Errorf("SelfInitiatedReduces = %d, want 1", got)
	}
	if sum != 123 || ops != 1 {
		t.Errorf("sink got sum %d ops %d, want 123/1", sum, ops)
	}
}

// TestINAStationFullFallsBack overflows the accumulation station: the
// overflow operand must self-initiate immediately and everything must be
// delivered exactly once.
func TestINAStationFullFallsBack(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.EnableINA = true
	cfg.Router.GatherQueueCap = 1
	cfg.Delta = 1000 // only the overflow path, no timeouts
	nw := mustNetwork(t, cfg)
	row := 0
	dst := nw.RowSinkID(row)

	sum := uint64(0)
	ops := 0
	nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) {
		for _, pl := range p.Payloads {
			sum += pl.Value
			ops += pl.OpsCount()
		}
	})

	id := nw.Topology().ID(topology.Coord{Row: row, Col: 2})
	n := nw.NIC(id)
	n.SubmitPayload(reduce.ReduceStation, 0, reduceOperandAt(1, id, dst, 4, 10))
	n.SubmitPayload(reduce.ReduceStation, 0, reduceOperandAt(2, id, dst, 4, 20))
	if n.SelfInitiatedReduces.Value() != 1 {
		t.Fatalf("overflow operand did not self-initiate (count=%d)",
			n.SelfInitiatedReduces.Value())
	}
	left := nw.Topology().ID(topology.Coord{Row: row, Col: 0})
	nw.NIC(left).SendAccumulate(0, dst, 4, reduceOperandAt(3, left, dst, 4, 30))

	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if sum != 60 || ops != 3 {
		t.Errorf("sink got sum %d ops %d, want 60/3", sum, ops)
	}
}

// TestINAOffBitIdentical pins the guard rail: with EnableINA unset (and no
// accumulate traffic), a gather workload's schedule and activity must be
// byte-for-byte what they were before the INA subsystem existed — here
// asserted as equality between two configs differing only in EnableINA.
func TestINAOffBitIdentical(t *testing.T) {
	runGather := func(enable bool) (Activity, int64) {
		cfg := DefaultConfig(4, 4)
		cfg.EnableINA = enable
		nw := mustNetwork(t, cfg)
		dst := nw.RowSinkID(0)
		for col := 1; col < 4; col++ {
			id := nw.Topology().ID(topology.Coord{Row: 0, Col: col})
			nw.NIC(id).SetDelta(5 * int64(1+col))
			nw.NIC(id).SubmitPayload(reduce.GatherStation, 0, flitPayloadAt(uint64(col), id, dst))
		}
		own := flitPayloadAt(9, 0, dst)
		nw.NIC(0).SendGather(0, dst, &own)
		cycles, err := nw.RunUntilQuiescent(100000)
		if err != nil {
			t.Fatal(err)
		}
		return nw.Activity(), cycles
	}
	aOff, cOff := runGather(false)
	aOn, cOn := runGather(true)
	if aOff != aOn || cOff != cOn {
		t.Errorf("EnableINA perturbed a gather run:\noff %+v (%d cycles)\non  %+v (%d cycles)",
			aOff, cOff, aOn, cOn)
	}
}

// TestINAConfigValidation pins the knob accumulation shares with gather:
// η, an accumulate packet's merge budget, defaults to the row width, and a
// negative one is refused with INA on.
func TestINAConfigValidation(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.EnableINA = true
	if got := cfg.EffectiveGatherCapacity(); got != 4 {
		t.Errorf("EffectiveGatherCapacity = %d, want Cols (4)", got)
	}
	cfg.GatherCapacity = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative GatherCapacity accepted")
	}
}
