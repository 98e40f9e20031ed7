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
	flits, err := flit.PacketizeInto(nil, flit.Packet{ID: 1, PT: flit.Unicast, Src: 0, Dst: 1, Flits: 3}, format, nil)
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

	// Corrupt a credit counter directly: more credits than the
	// downstream buffer has slots.
	h.a.outVC(topology.EastPort, 0).credits = uint8(cfg.BufferDepth + 1)
	err := h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "credit") {
		t.Errorf("excess credit not detected: %v", err)
	}
	h.a.outVC(topology.EastPort, 0).credits = uint8(cfg.BufferDepth)

	// Raise a gather load without a reservation.
	local := &h.a.vcs[h.a.slot(int(topology.LocalPort), 0)]
	local.flags |= gatherLoad
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "load") {
		t.Errorf("dangling load not detected: %v", err)
	}
	local.flags &^= gatherLoad

	// Leave a branch on a VC that holds no flit and is idle.
	rest := &h.a.vcs[h.a.slot(int(topology.WestPort), 1)]
	rest.br[0], rest.nbr = branchState{out: topology.EastPort, vc: -1}, 1
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "not at rest") {
		t.Errorf("stale branch on an idle VC not detected: %v", err)
	}
	rest.nbr = 0

	// Fork a VC in VA twice to one output.
	rest.stage = vcVA
	rest.br[1], rest.nbr = branchState{out: topology.EastPort, vc: -1}, 2
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "two branches") {
		t.Errorf("two branches to one output not detected: %v", err)
	}
	rest.stage, rest.nbr = vcIdle, 0

	// Claim ownership pointing at an input VC that holds nothing.
	owned := h.a.outVC(topology.EastPort, 1)
	owned.ownerPort, owned.ownerVC = 0, 0
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("orphan ownership not detected: %v", err)
	}
	owned.ownerPort, owned.ownerVC = -1, -1

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
