package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"gathernoc/internal/nic"
	"gathernoc/internal/topology"
)

// matrixConfig builds the network configuration for one (topology,
// routing) cell: the Table I defaults, with east sinks dropped on the
// torus (its east ports wrap around).
func matrixConfig(topo, routing string, rows, cols int) Config {
	cfg := DefaultConfig(rows, cols)
	cfg.Topology = topo
	cfg.Routing = routing
	if topo == "torus" {
		cfg.EastSinks = false
	}
	return cfg
}

// saturator is an open-loop injector driving every NIC far past the
// saturation rate — the stress under which a routing deadlock, were one
// possible, would manifest as a never-draining network.
type saturator struct {
	nw     *Network
	rng    *rand.Rand
	dest   func(src topology.NodeID, rng *rand.Rand) topology.NodeID
	cycles int64
	rate   float64
	sent   int
}

func (s *saturator) Tick(cycle int64) {
	if cycle >= s.cycles {
		return
	}
	n := s.nw.Topology().NumNodes()
	for id := 0; id < n; id++ {
		if s.rng.Float64() >= s.rate {
			continue
		}
		src := topology.NodeID(id)
		dst := s.dest(src, s.rng)
		if dst == src {
			continue
		}
		s.nw.NIC(src).SendUnicastN(0, dst, 2)
		s.sent++
	}
}

// TestTopologyRoutingMatrixDeadlockFree runs every built-in (topology,
// routing) pair under saturated uniform-random and transpose traffic and
// requires the network to drain completely: with a deadlocked VC anywhere
// the run would exhaust its cycle budget instead. Torus cells exercise
// the wraparound links and the dateline VC classes; the adaptive cells
// exercise credit-based output selection under heavy backpressure.
func TestTopologyRoutingMatrixDeadlockFree(t *testing.T) {
	rows, cols := 6, 6
	window := int64(600)
	if testing.Short() {
		rows, cols = 4, 4
		window = 250
	}
	for _, topoName := range topology.TopologyNames() {
		for _, routingName := range topology.RoutingNames() {
			for _, pattern := range []string{"uniform", "transpose"} {
				name := fmt.Sprintf("%s/%s/%s", topoName, routingName, pattern)
				t.Run(name, func(t *testing.T) {
					cfg := matrixConfig(topoName, routingName, rows, cols)
					nw := mustNetwork(t, cfg)
					topo := nw.Topology()
					received := 0
					for id := 0; id < topo.NumNodes(); id++ {
						nw.NIC(topology.NodeID(id)).OnReceive(func(p *nic.ReceivedPacket) {
							received++
						})
					}
					dest := func(src topology.NodeID, rng *rand.Rand) topology.NodeID {
						return topology.NodeID(rng.Intn(topo.NumNodes()))
					}
					if pattern == "transpose" {
						dest = func(src topology.NodeID, rng *rand.Rand) topology.NodeID {
							c := topo.Coord(src)
							return topo.ID(topology.Coord{Row: c.Col, Col: c.Row})
						}
					}
					sat := &saturator{
						nw: nw, rng: rand.New(rand.NewSource(11)),
						dest: dest, cycles: window, rate: 0.5,
					}
					nw.Engine().AddTicker(sat)
					// The stall watchdog bounds the deadlock detection: a
					// wedged cell fails within one no-progress window with
					// a component-level diagnostic, instead of spinning to
					// the coarse cycle budget (kept as a backstop).
					nw.Engine().SetWatchdog(nw.Watchdog(20_000))
					if _, err := nw.RunUntilQuiescent(5_000_000); err != nil {
						t.Fatalf("%s did not drain (deadlock?): %v", name, err)
					}
					if received != sat.sent {
						t.Fatalf("received %d of %d packets", received, sat.sent)
					}
					if err := nw.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestTorusHopAccountingMatchesTopology cross-validates the simulator
// against the topology's hop geometry: under deterministic wrap-aware
// dimension-order routing every packet traverses exactly the minimal
// torus distance plus one (source router included), so wraparound routes
// really take the shorter way around the rings.
func TestTorusHopAccountingMatchesTopology(t *testing.T) {
	cfg := matrixConfig("torus", "xy", 5, 5)
	nw := mustNetwork(t, cfg)
	topo := nw.Topology()
	type want struct{ src, dst topology.NodeID }
	byID := map[uint64]want{}
	var got []*nic.ReceivedPacket
	for id := 0; id < topo.NumNodes(); id++ {
		nw.NIC(topology.NodeID(id)).OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		if src == dst {
			continue
		}
		pid := nw.NIC(src).SendUnicastN(0, dst, 2)
		byID[pid] = want{src: src, dst: dst}
	}
	if _, err := nw.RunUntilQuiescent(100000); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(byID) {
		t.Fatalf("received %d, want %d", len(got), len(byID))
	}
	for _, p := range got {
		w := byID[p.ID]
		if wantHops := topo.Hops(w.src, w.dst) + 1; p.Hops != wantHops {
			t.Errorf("packet %d->%d hops = %d, want %d", w.src, w.dst, p.Hops, wantHops)
		}
	}
}

// TestConfigValidateTopologyCombos pins the inconsistent-combination
// errors: configurations that would silently misroute must be rejected
// with a clear message instead.
func TestConfigValidateTopologyCombos(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		wantOK bool
	}{
		{"mesh default", func(c *Config) {}, true},
		{"torus default", func(c *Config) { c.Topology = "torus"; c.EastSinks = false }, true},
		{"unknown topology", func(c *Config) { c.Topology = "hypercube" }, false},
		{"unknown routing", func(c *Config) { c.Routing = "zigzag" }, false},
		{"oddeven on mesh", func(c *Config) { c.Routing = "oddeven" }, true},
		{"torus with east sinks", func(c *Config) { c.Topology = "torus" }, false},
		{"torus xy single vc", func(c *Config) {
			c.Topology = "torus"
			c.EastSinks = false
			c.Router.VCs = 1
		}, false},
		{"torus xy with gather vc", func(c *Config) {
			c.Topology = "torus"
			c.EastSinks = false
			c.Router.GatherVC = 3
		}, false},
		{"torus oddeven with gather vc", func(c *Config) {
			c.Topology = "torus"
			c.EastSinks = false
			c.Routing = "oddeven"
			c.Router.GatherVC = 3
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 4)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.wantOK {
				t.Errorf("Validate() err = %v, wantOK %v", err, tt.wantOK)
			}
			if err != nil {
				if _, nerr := New(cfg); nerr == nil {
					t.Error("New accepted a config Validate rejects")
				}
			}
		})
	}
}

// TestDefaultTorusConfigValid keeps the torus convenience constructor
// buildable as defaults evolve.
func TestDefaultTorusConfigValid(t *testing.T) {
	cfg := DefaultTorusConfig(4, 6)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	nw := mustNetwork(t, cfg)
	if nw.Topology().Name() != "torus" {
		t.Errorf("topology = %q, want torus", nw.Topology().Name())
	}
	if nw.Sink(0) != nil {
		t.Error("torus network must not have edge sinks")
	}
	if nw.Routing().VCClasses() != 2 {
		t.Errorf("routing VCClasses = %d, want 2 (dateline)", nw.Routing().VCClasses())
	}
}
