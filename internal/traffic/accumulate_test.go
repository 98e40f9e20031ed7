package traffic

import (
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
)

// runAlone is workload.Run, which imports this package: every delivery to
// c, c started at the current cycle and registered until it drains.
func runAlone(nw *noc.Network, c *AccumulationController, maxCycles int64) (int64, error) {
	nw.OnReceive(c.OnPacket)
	c.Start(nw.Engine().Cycle())
	return nw.Engine().RunWith(c, c.Drained, maxCycles)
}

func runAccumulation(t *testing.T, scheme CollectScheme, mutate func(*noc.Config)) *AccumulationResult {
	t.Helper()
	cfg := noc.DefaultConfig(8, 8)
	cfg.EnableINA = true
	if mutate != nil {
		mutate(&cfg)
	}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewAccumulationController(nw, AccumulationConfig{
		Scheme: scheme, Rounds: 2, ComputeLatency: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := runAlone(nw, ctl, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res := ctl.Result(cycles)
	if res.OracleErrors != 0 {
		t.Fatalf("%s: %d oracle errors", scheme, res.OracleErrors)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAccumulationOracleAllSchemes(t *testing.T) {
	for _, scheme := range []CollectScheme{CollectUnicast, CollectGather, CollectINA} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res := runAccumulation(t, scheme, nil)
			if res.RoundCycles.N() != 2 {
				t.Errorf("rounds simulated = %d, want 2", res.RoundCycles.N())
			}
		})
	}
}

func TestAccumulationINAMergesFullRows(t *testing.T) {
	res := runAccumulation(t, CollectINA, nil)
	// With uniform completion and column-scaled δ every non-initiator
	// operand merges into the row's packet: 7 columns × 8 rows × 2 rounds.
	if res.Merges != 112 {
		t.Errorf("merges = %d, want 112", res.Merges)
	}
	if res.SelfInitiated != 0 {
		t.Errorf("self-initiated = %d, want 0", res.SelfInitiated)
	}
	// One 2-flit accumulate packet per row per round at the sinks.
	if res.SinkPackets != 16 || res.SinkFlits != 32 {
		t.Errorf("sink packets/flits = %d/%d, want 16/32", res.SinkPackets, res.SinkFlits)
	}
	if res.Reduction.PayloadsMerged != 112 || res.Reduction.SinkTransactionsSaved != 112 {
		t.Errorf("reduction stats = %+v, want 112 merges/savings", res.Reduction)
	}
	if res.Reduction.LinkTraversalsSaved == 0 {
		t.Error("merges must account saved link traversals")
	}
	if res.Activity.ReduceMerges != res.Merges {
		t.Errorf("activity merges = %d, NIC acks = %d", res.Activity.ReduceMerges, res.Merges)
	}
}

func TestAccumulationINABeatsGatherAtSink(t *testing.T) {
	g := runAccumulation(t, CollectGather, nil)
	a := runAccumulation(t, CollectINA, nil)
	if a.SinkFlits >= g.SinkFlits {
		t.Errorf("INA sink flits %d not below gather %d", a.SinkFlits, g.SinkFlits)
	}
	if a.PacketLatency.Mean() >= g.PacketLatency.Mean() {
		t.Errorf("INA packet latency %.1f not below gather %.1f",
			a.PacketLatency.Mean(), g.PacketLatency.Mean())
	}
}

func TestAccumulationINADisabledRejected(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewAccumulationController(nw, AccumulationConfig{
		Scheme: CollectINA, Rounds: 1,
	})
	if err == nil {
		t.Fatal("INA scheme without EnableINA must be rejected")
	}
}

func TestAccumulationReduceDeltaTimeout(t *testing.T) {
	// A tiny flat δ forces self-initiated accumulate fallbacks, and the
	// sums must still verify: correctness never depends on merging.
	res := runAccumulation(t, CollectINA, func(c *noc.Config) {
		c.Delta = 1
	})
	// Undo the per-column scaling's protection by construction: δ·(1+col)
	// stays far below the packet's multi-hop transit for distant columns,
	// so at least some operands time out.
	if res.SelfInitiated == 0 {
		t.Skip("no timeouts at this δ; scaling covered the transit")
	}
	if res.OracleErrors != 0 {
		t.Errorf("oracle errors under timeouts: %d", res.OracleErrors)
	}
}

func TestAccumulationReduceCapacityLimitsMerges(t *testing.T) {
	// A merge budget (η) of 2 (own operand + one merge) forces the
	// remaining operands onto fallback packets; sums must still verify.
	res := runAccumulation(t, CollectINA, func(c *noc.Config) {
		c.GatherCapacity = 2
	})
	if res.OracleErrors != 0 {
		t.Fatalf("oracle errors under capacity limit: %d", res.OracleErrors)
	}
	// Each packet (initiator or fallback) absorbs at most one extra
	// operand, so full-row merging (7 per row) is impossible; fallback
	// packets with their own budget keep some merging alive.
	full := uint64((res.Cols - 1) * res.Rows * res.Rounds)
	if res.Merges >= full {
		t.Errorf("merges = %d, capacity 2 cannot reach full merging (%d)", res.Merges, full)
	}
	if res.SelfInitiated == 0 {
		t.Error("capacity limit must force self-initiated fallbacks")
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"unicast", "gather", "ina"} {
		s, err := SchemeByName(name)
		if err != nil || s.String() != name {
			t.Errorf("SchemeByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := SchemeByName("bogus"); err == nil {
		t.Error("bogus scheme must error")
	}
}

func TestAccumulationConfigValidate(t *testing.T) {
	for _, cfg := range []AccumulationConfig{
		{Scheme: 0, Rounds: 1},
		{Scheme: CollectGather, Rounds: 0},
		{Scheme: CollectGather, Rounds: 1, TotalRounds: -1},
		{Scheme: CollectGather, Rounds: 1, ComputeLatency: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccumulationController(nw, AccumulationConfig{Scheme: CollectGather}); err == nil {
		t.Error("NewAccumulationController accepted zero rounds")
	}
}

// TestAccumulationPayloadOutsideTheRound: a payload that names another
// controller's tag, a row past the fabric or another round, or that
// arrives after its row verified, is an oracle error, never a sum.
func TestAccumulationPayloadOutsideTheRound(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewAccumulationController(nw, AccumulationConfig{Scheme: CollectUnicast, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	for _, rid := range []uint64{
		flit.TaggedReduceID(flit.NewTag(3, 1), 0, 0), // another controller's
		flit.TaggedReduceID(0, 4, 0),                 // no such row
		flit.TaggedReduceID(0, 0, 1),                 // another round
	} {
		c.OnPayload(flit.Payload{ReduceID: rid, Ops: 1})
	}
	if got := c.Snapshot().OracleErrors; got != 3 {
		t.Fatalf("%d oracle errors after three stray payloads, want 3", got)
	}
	for id := 0; id < 4; id++ { // row 0's four operands, then one more
		c.OnPayload(flit.Payload{ReduceID: flit.TaggedReduceID(0, 0, 0), Value: reduce.Operand(id, 0), Ops: 1})
	}
	c.OnPayload(flit.Payload{ReduceID: flit.TaggedReduceID(0, 0, 0), Ops: 1})
	if got := c.Snapshot().OracleErrors; got != 4 {
		t.Fatalf("%d oracle errors after a verified row and a duplicate, want 4", got)
	}
}
