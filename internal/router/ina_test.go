package router

import (
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/reduce"
)

// packAccumulate builds an accumulate packet's flits for the two-router
// harness (nodes 0 and 1).
func packAccumulate(t *testing.T, budget int, reduceID uint64, own flit.Payload) []*flit.Flit {
	t.Helper()
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)
	flits, err := flit.PacketizeInto(nil, flit.Packet{
		ID: 10, PT: flit.Accumulate, Src: 0, Dst: 1,
		Flits: flit.AccumulateFlits, GatherCapacity: budget,
		ReduceID: reduceID, Carried: &own,
	}, format, nil)

	if err != nil {
		t.Fatal(err)
	}
	return flits
}

// TestRouterAccumulateMergeInFlight drives an accumulate packet past a
// router holding a matching operand: the operand must fold into the
// packet's accumulator, exactly once, with the packet length unchanged.
func TestRouterAccumulateMergeInFlight(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)

	merged := false
	h.b.SetStationOwner(ackFunc(func(reduce.Kind, flit.Payload) { merged = true }))
	if !h.b.OfferReduceOperand(flit.Payload{Seq: 7, Src: 1, Dst: 1, ReduceID: 5, Value: 30, Ops: 1}) {
		t.Fatal("offer rejected")
	}

	for _, f := range packAccumulate(t, 8, 5, flit.Payload{Seq: 1, Src: 0, Dst: 1, Value: 12, Ops: 1}) {
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
		t.Fatal("accumulate packet did not arrive")
	}
	if !merged {
		t.Error("operand at intermediate router was not merged")
	}
	if got := h.b.Counters.ReduceMerges.Value(); got != 1 {
		t.Errorf("ReduceMerges = %d, want 1", got)
	}
	if got := h.b.Counters.ReduceReserves.Value(); got != 1 {
		t.Errorf("ReduceReserves = %d, want 1", got)
	}
	if len(tail.Payloads) != 1 {
		t.Fatalf("accumulator carries %d payloads, want 1", len(tail.Payloads))
	}
	acc := tail.Payloads[0]
	if acc.Value != 42 || acc.Ops != 2 {
		t.Errorf("accumulator = value %d ops %d, want 42/2", acc.Value, acc.Ops)
	}
	if h.b.ReduceBacklog() != 0 {
		t.Errorf("station backlog = %d after merge, want 0", h.b.ReduceBacklog())
	}
}

// TestRouterAccumulateSkipsForeignReduceID pins the isolation property: an
// operand of a different reduction must not be reserved or merged.
func TestRouterAccumulateSkipsForeignReduceID(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)

	h.b.OfferReduceOperand(flit.Payload{Seq: 7, Src: 1, Dst: 1, ReduceID: 99, Value: 30, Ops: 1})
	for _, f := range packAccumulate(t, 8, 5, flit.Payload{Seq: 1, Src: 0, Dst: 1, Value: 12, Ops: 1}) {
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
		t.Fatal("accumulate packet did not arrive")
	}
	if got := h.b.Counters.ReduceReserves.Value(); got != 0 {
		t.Errorf("ReduceReserves = %d, want 0 for a foreign reduction", got)
	}
	if acc := tail.Payloads[0]; acc.Value != 12 || acc.Ops != 1 {
		t.Errorf("accumulator = value %d ops %d, must stay 12/1", acc.Value, acc.Ops)
	}
	if h.b.ReduceBacklog() != 1 {
		t.Errorf("station backlog = %d, operand must remain queued", h.b.ReduceBacklog())
	}
	// The untouched operand is retractable (the δ path would recover it).
	if !h.b.RetractReduceOperand(7) {
		t.Error("retract of the skipped operand failed")
	}
}

// TestRouterAccumulateBudgetExhausted pins ASpace accounting: with the
// merge budget consumed by the initiator's own operand, a passing packet
// must not reserve or merge anything.
func TestRouterAccumulateBudgetExhausted(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)

	h.b.OfferReduceOperand(flit.Payload{Seq: 7, Src: 1, Dst: 1, ReduceID: 5, Value: 30, Ops: 1})
	// Budget 1: the initiator's own operand uses it up (ASpace = 0).
	for _, f := range packAccumulate(t, 1, 5, flit.Payload{Seq: 1, Src: 0, Dst: 1, Value: 12, Ops: 1}) {
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
		t.Fatal("accumulate packet did not arrive")
	}
	if got := h.b.Counters.ReduceMerges.Value(); got != 0 {
		t.Errorf("ReduceMerges = %d, want 0 with exhausted budget", got)
	}
	if acc := tail.Payloads[0]; acc.Value != 12 || acc.Ops != 1 {
		t.Errorf("accumulator = value %d ops %d, must stay 12/1", acc.Value, acc.Ops)
	}
}

func TestReduceQueueCapDefault(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ReduceQueueCap != 4 {
		t.Errorf("ReduceQueueCap default = %d, want 4", cfg.ReduceQueueCap)
	}
}
