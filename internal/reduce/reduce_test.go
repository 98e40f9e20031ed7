package reduce

import (
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/topology"
)

func op(seq uint64, dst topology.NodeID, reduceID, value uint64) flit.Payload {
	return flit.Payload{Seq: seq, Dst: dst, ReduceID: reduceID, Value: value, Ops: 1}
}

func TestStationOfferCapacity(t *testing.T) {
	s := NewStation(2, ReduceStation)
	if !s.Offer(op(1, 9, 7, 10)) || !s.Offer(op(2, 9, 7, 20)) {
		t.Fatal("offers under capacity must succeed")
	}
	if s.Offer(op(3, 9, 7, 30)) {
		t.Error("offer over capacity must fail")
	}
	if s.Backlog() != 2 {
		t.Errorf("backlog = %d, want 2", s.Backlog())
	}
}

func TestStationZeroCapacityClamped(t *testing.T) {
	s := NewStation(0, ReduceStation)
	if !s.Offer(op(1, 9, 7, 10)) {
		t.Error("clamped station must accept one operand")
	}
}

func TestReserveMatchesDstAndReduceID(t *testing.T) {
	s := NewStation(4, ReduceStation)
	s.Offer(op(1, 9, 100, 10))
	s.Offer(op(2, 8, 200, 20))
	s.Offer(op(3, 9, 200, 30))

	if s.Reserve(9, 300, 0) {
		t.Error("reserve must not match a foreign reduce ID")
	}
	if s.Reserve(7, 100, 0) {
		t.Error("reserve must not match a foreign destination")
	}
	ok := s.Reserve(9, 200, 1)
	if e, held := s.Held(1); !ok || !held || e.Seq != 3 {
		t.Fatalf("reserve(9,200) = %v,%v, want seq 3", e, ok)
	}
	// A reserved entry is not reservable twice.
	if s.Reserve(9, 200, 2) {
		t.Error("double reservation must fail")
	}
	// Release returns it to the pool.
	s.Release(1)
	if _, held := s.Held(1); held {
		t.Error("released entry must be held by nobody")
	}
	if !s.Reserve(9, 200, 2) {
		t.Error("released entry must be reservable again")
	}
}

func TestReserveOldestFirst(t *testing.T) {
	s := NewStation(4, ReduceStation)
	s.Offer(op(5, 9, 1, 0))
	s.Offer(op(6, 9, 1, 0))
	ok := s.Reserve(9, 1, 0)
	if e, _ := s.Held(0); !ok || e.Seq != 5 {
		t.Errorf("reserve picked seq %d, want oldest (5)", e.Seq)
	}
}

func TestCompleteFiresAckAndRemoves(t *testing.T) {
	s := NewStation(4, ReduceStation)
	var acked []uint64
	s.SetOwner(ackFunc(func(k Kind, p flit.Payload) {
		if k == ReduceStation {
			acked = append(acked, p.Seq)
		}
	}))
	s.Offer(op(1, 9, 1, 0))
	s.Reserve(9, 1, 0)
	s.Complete(0)
	if len(acked) != 1 || acked[0] != 1 {
		t.Errorf("ack fired for %v, want [1]", acked)
	}
	if s.Backlog() != 0 {
		t.Errorf("backlog = %d after complete, want 0", s.Backlog())
	}
}

func TestRetract(t *testing.T) {
	s := NewStation(4, ReduceStation)
	s.Offer(op(1, 9, 1, 0))
	s.Offer(op(2, 9, 1, 0))
	if !s.Retract(2) {
		t.Error("retract of a pending operand must succeed")
	}
	if s.Retract(2) {
		t.Error("retract of a removed operand must fail")
	}
	// Reserved operands cannot be retracted: the merge is imminent.
	s.Reserve(9, 1, 0)
	if s.Retract(1) {
		t.Error("retract of a reserved operand must fail")
	}
}

func TestOracleExactness(t *testing.T) {
	var o Oracle
	// Wrap-around addition must match uint64 arithmetic exactly.
	o.Add(1, ^uint64(0))
	o.Add(1, 2)
	o.Add(2, 5)
	if got := o.Sum(1); got != 1 {
		t.Errorf("sum(1) = %d, want wrap-around 1", got)
	}
	if sum, complete, err := o.Fold(op(1, 0, 2, 5)); !complete || sum != 5 || err != nil {
		t.Errorf("fold(2) = %d, %v, %v; want 5, complete, verified", sum, complete, err)
	}
	o.Fold(op(2, 0, 1, 2))
	if sum, complete, err := o.Fold(op(3, 0, 1, ^uint64(0))); !complete || sum != 1 || err != nil {
		t.Errorf("fold(1) = %d, %v, %v; want wrap-around 1, complete, verified", sum, complete, err)
	}
	// Reset empties the oracle in place: last round's reductions are gone.
	o.Reset()
	if got := o.Sum(1); got != 0 {
		t.Errorf("sum(1) after Reset = %d, want 0", got)
	}
	if _, _, err := o.Fold(op(4, 0, 2, 5)); err == nil {
		t.Error("fold of a reduction from before Reset must be an error")
	}
}

// TestOracleLedger: a reduction completes exactly when it has folded as
// many operands as the oracle was loaded with, is then verified bit for bit,
// and every payload after that is an error.
func TestOracleLedger(t *testing.T) {
	const rid = 7
	withOps := func(v uint64, ops int) flit.Payload {
		return flit.Payload{ReduceID: rid, Value: v, Ops: ops}
	}
	for _, tc := range []struct {
		name string
		in   []flit.Payload
		// complete and errs are Fold's verdict on each payload.
		complete []bool
		errs     []bool
	}{
		{"completes at the expected count", []flit.Payload{withOps(10, 1), withOps(20, 1), withOps(30, 1)},
			[]bool{false, false, true}, []bool{false, false, false}},
		{"merged operands count as many", []flit.Payload{withOps(30, 2), withOps(30, 1)},
			[]bool{false, true}, []bool{false, false}},
		{"wrong sum", []flit.Payload{withOps(10, 1), withOps(20, 1), withOps(31, 1)},
			[]bool{false, false, true}, []bool{false, false, true}},
		{"wrong operand count", []flit.Payload{withOps(10, 1), withOps(50, 3)},
			[]bool{false, true}, []bool{false, true}},
		{"operand after completion", []flit.Payload{withOps(60, 3), withOps(0, 1), withOps(10, 1)},
			[]bool{true, false, false}, []bool{false, true, true}},
		{"no such reduction", []flit.Payload{{ReduceID: rid + 1, Value: 60, Ops: 3}},
			[]bool{false}, []bool{true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var o Oracle
			for _, v := range []uint64{10, 20, 30} {
				o.Add(rid, v)
			}
			for i, pl := range tc.in {
				sum, complete, err := o.Fold(pl)
				if complete != tc.complete[i] || (err != nil) != tc.errs[i] {
					t.Fatalf("payload %d: complete %v, err %v; want complete %v, error %v",
						i, complete, err, tc.complete[i], tc.errs[i])
				}
				if complete && !tc.errs[i] && sum != 60 {
					t.Fatalf("payload %d completed with sum %d, want 60", i, sum)
				}
			}
		})
	}
}

func TestMergePayloadExactness(t *testing.T) {
	f := &flit.Flit{PT: flit.Accumulate, Type: flit.Tail, SlotCap: 1}
	f.AddPayload(flit.Payload{ReduceID: 7, Value: ^uint64(0), Ops: 1})
	if !f.MergePayload(flit.Payload{ReduceID: 7, Value: 3, Ops: 1}) {
		t.Fatal("merge with matching reduce ID must succeed")
	}
	if f.MergePayload(flit.Payload{ReduceID: 8, Value: 1}) {
		t.Error("merge with foreign reduce ID must fail")
	}
	if got := f.Payloads[0].Value; got != 2 {
		t.Errorf("merged value = %d, want wrap-around 2", got)
	}
	if got := f.Payloads[0].Ops; got != 2 {
		t.Errorf("merged ops = %d, want 2", got)
	}
}

// TestGatherStationReserveIgnoresReduceID checks that the station's kind
// decides the match rule: a gather station reserves the oldest pending
// payload for the destination whatever its reduction tag, an accumulation
// station holding the same entries only the one with the header's ID.
func TestGatherStationReserveIgnoresReduceID(t *testing.T) {
	g, r := NewStation(4, GatherStation), NewStation(4, ReduceStation)
	for _, s := range []*Station{&g, &r} {
		s.Offer(op(1, 9, 100, 10))
		s.Offer(op(2, 9, 200, 20))
	}
	ok := g.Reserve(9, 200, 0)
	if e, held := g.Held(0); !ok || !held || e.Seq != 1 {
		t.Fatalf("gather Reserve(9,200) = %v,%v, want seq 1", e, ok)
	}
	if g.Reserve(7, 200, 1) {
		t.Error("gather Reserve matched a foreign destination")
	}
	ok = r.Reserve(9, 200, 0)
	if e, held := r.Held(0); !ok || !held || e.Seq != 2 {
		t.Fatalf("reduce Reserve(9,200) = %v,%v, want seq 2", e, ok)
	}
}

// ackFunc is a station owner made of a function.
type ackFunc func(Kind, flit.Payload)

func (f ackFunc) Acked(k Kind, op flit.Payload) { f(k, op) }
