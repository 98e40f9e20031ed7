package noc

import (
	"strings"
	"testing"

	"gathernoc/internal/router"
)

// FuzzConfigValidate throws arbitrary fabric dimensions, topology/routing
// selectors, sink placements and VC counts at Config.Validate. The
// invariant: Validate never panics, and every rejection is a named error
// (the "noc:" prefix) rather than a silent misconfiguration — a config
// that would misroute must be refused with the conflict spelled out.
func FuzzConfigValidate(f *testing.F) {
	f.Add(8, 8, uint8(0), uint8(0), true, 4, -1, 1, 1)
	f.Add(8, 8, uint8(1), uint8(0), false, 2, -1, 1, 1)
	f.Add(8, 8, uint8(1), uint8(0), true, 1, 0, 1, 1)   // torus + east sinks: rejected
	f.Add(0, -3, uint8(0), uint8(1), false, 4, 2, 0, 5) // degenerate dims
	f.Add(16, 16, uint8(2), uint8(3), true, 4, 3, 2, 1) // unknown topology byte
	f.Add(8, 8, uint8(0), uint8(0), true, 65, -1, 1, 1) // VCs past the router's slot-mask width
	f.Fuzz(func(t *testing.T, rows, cols int, topoSel, routeSel uint8, sinks bool,
		vcs, gatherVC, linkLatency, ejectRate int) {
		topos := []string{"", "mesh", "torus", "hypercube"}
		routes := []string{"", "xy", "westfirst", "oddeven", "valiant"}
		cfg := DefaultConfig(rows, cols)
		cfg.Topology = topos[int(topoSel)%len(topos)]
		cfg.Routing = routes[int(routeSel)%len(routes)]
		cfg.EastSinks = sinks
		cfg.Router.VCs = vcs
		cfg.Router.GatherVC = gatherVC
		cfg.LinkLatency = linkLatency
		cfg.EjectRate = ejectRate

		err := cfg.Validate()
		if err == nil {
			// Accepted configs must be self-consistent enough for the
			// derived accessors to behave.
			if cfg.EffectiveShards() < 0 || cfg.EffectiveGatherCapacity() < 1 || cfg.Delta < 0 {
				t.Fatalf("accepted config with broken derived values: %+v", cfg)
			}
			return
		}
		msg := err.Error()
		if msg == "" {
			t.Fatal("rejection with empty error message")
		}
		if !strings.HasPrefix(msg, "noc: ") &&
			!strings.HasPrefix(msg, "router: ") &&
			!strings.HasPrefix(msg, "telemetry: ") &&
			!strings.HasPrefix(msg, "fault: ") {
			t.Fatalf("rejection not named by its layer: %q", msg)
		}
	})
}

// TestFuzzSeedsRouterDefaults pins the assumption the fuzz harness makes:
// the default router config carries no gather VC, so GatherVC collisions
// only appear when the fuzzer sets one.
func TestFuzzSeedsRouterDefaults(t *testing.T) {
	if router.DefaultConfig().GatherVC != -1 {
		t.Fatal("router.DefaultConfig gained a GatherVC; refresh the fuzz seeds")
	}
}
