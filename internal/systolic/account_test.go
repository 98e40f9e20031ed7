package systolic

import (
	"math/rand"
	"slices"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// TestPayloadAccountMatchesMaps: the global buffer's per-round account
// marks sources by node and sequence numbers by their offset from the
// round's first, with a map for an id outside either range, and flags
// exactly what two maps cleared every round flagged: a payload whose
// sequence number or source the round has already seen, whatever round or
// node it claims to come from.
func TestPayloadAccountMatchesMaps(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(nw, Config{Layer: smallLayer(), Mode: RepetitiveUnicast, TMAC: 5, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var errs int
	for round := 0; round < 4; round++ {
		c.BeginRound(int64(round))
		first := c.NextSeq()
		for range c.expected {
			c.Payload(0, 0, 0, 0, 0, 0) // the round's releases draw their numbers
		}
		seenSeq, seenSrc := map[uint64]bool{}, map[topology.NodeID]bool{}
		collected := 0
		for i := 0; i < 80; i++ {
			pl := flit.Payload{
				Seq: first - 24 + uint64(rng.Intn(64)),
				Src: topology.NodeID(rng.Intn(24) - 4),
			}
			c.onPayload(pl)
			if seenSeq[pl.Seq] || seenSrc[pl.Src] {
				errs++
			} else {
				seenSeq[pl.Seq], seenSrc[pl.Src] = true, true
				collected++
			}
			if c.payloadErrs != errs || c.collected != collected {
				t.Fatalf("round %d, payload %d (seq %d from the round's first, source %d): %d errors and %d collected, want %d and %d",
					round, i, int64(pl.Seq-first), pl.Src, c.payloadErrs, c.collected, errs, collected)
			}
		}
	}
	if errs == 0 {
		t.Fatal("the stream held no repeat")
	}
}

// TestFlatDeltaKeepsItsOwnScales: the row plans are the network's, shared
// by every controller built on it (noc.Network.RowLines). A FlatDelta
// controller gives its copies unit δ scales and leaves the network's, and
// so a default controller's, at one plus the hop distance from the
// initiator, whichever is built first.
func TestFlatDeltaKeepsItsOwnScales(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	build := func(flat bool) *Controller {
		c, err := NewController(nw, Config{Layer: smallLayer(), Mode: GatherMode, TMAC: 5, FlatDelta: flat})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctls := []*Controller{build(true), build(false), build(true)}
	for row, shared := range nw.RowLines(true) {
		for i, scale := range shared.DeltaScale {
			if scale != 1+i {
				t.Fatalf("row %d: the network's δ scale %d is %d, want %d", row, i, scale, 1+i)
			}
		}
		for k, c := range ctls {
			plan := c.plans[row]
			if !slices.Equal(plan.Nodes, shared.Nodes) || plan.Target != shared.Target ||
				!slices.Equal(plan.Initiators, shared.Initiators) {
				t.Fatalf("controller %d, row %d: plan %+v, want the network's %+v", k, row, plan, shared)
			}
			for i, scale := range plan.DeltaScale {
				if want := map[bool]int{true: 1, false: 1 + i}[c.cfg.FlatDelta]; scale != want {
					t.Fatalf("controller %d (FlatDelta %v), row %d: δ scale %d is %d, want %d",
						k, c.cfg.FlatDelta, row, i, scale, want)
				}
			}
		}
	}
}
