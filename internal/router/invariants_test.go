package router

import (
	"strings"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/topology"
)

func TestCheckInvariantsHealthyPipeline(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)
	flits, err := flit.Packetize(flit.Packet{ID: 1, PT: flit.Unicast, Src: 0, Dst: 1, Flits: 3}, format)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flits {
		h.inject(f, 0)
	}
	for h.cycle < 30 {
		h.step()
		for _, r := range []*Router{h.a, h.b} {
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", h.cycle, err)
			}
		}
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)

	// Corrupt a credit counter directly.
	h.a.outputs[topology.EastPort].credits[0] = -1
	err := h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "credit") {
		t.Errorf("negative credit not detected: %v", err)
	}
	h.a.outputs[topology.EastPort].credits[0] = 0

	// Raise a gather load without a reservation.
	h.a.inputs[topology.LocalPort][0].gatherLoad = true
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "load") {
		t.Errorf("dangling load not detected: %v", err)
	}
	h.a.inputs[topology.LocalPort][0].gatherLoad = false

	// Leave a branch on a VC that holds no flit and is idle.
	rest := &h.a.inputs[topology.WestPort][1]
	rest.branches = append(rest.branches, branchState{out: topology.EastPort, vc: -1})
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "not at rest") {
		t.Errorf("stale branch on an idle VC not detected: %v", err)
	}
	rest.branches = rest.branches[:0]

	// Claim ownership pointing at an input VC that holds nothing.
	h.a.outputs[topology.EastPort].ownerPort[1] = 0
	h.a.outputs[topology.EastPort].ownerVC[1] = 0
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("orphan ownership not detected: %v", err)
	}
	h.a.outputs[topology.EastPort].ownerPort[1] = -1
	h.a.outputs[topology.EastPort].ownerVC[1] = -1

	// Flip one bit of each slot mask in turn.
	for name, mask := range map[string]*[topology.NumPorts]uint64{
		"occ": &h.a.occMask, "va": &h.a.vaMask, "act": &h.a.actMask,
	} {
		mask[topology.WestPort] ^= 1 << 2
		err = h.a.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "slot masks") {
			t.Errorf("%s mask drift not detected: %v", name, err)
		}
		mask[topology.WestPort] ^= 1 << 2
	}
	if err := h.a.CheckInvariants(); err != nil {
		t.Errorf("restored router still unhealthy: %v", err)
	}
}
