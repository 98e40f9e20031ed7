package noc

import (
	"bytes"
	"testing"

	"gathernoc/internal/nic"
	"gathernoc/internal/topology"
)

// The equivalence of a released network and a fresh build is the root
// package's reuseequiv suite; these are the corners of the API itself.

func TestAcquireRejectsInvalidConfigWithoutAPool(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	cfg.LinkLatency = 0
	before := ReuseStats()
	if _, err := Acquire(cfg); err == nil {
		t.Fatal("Acquire accepted LinkLatency 0")
	}
	if fabricPool(cfg, false) != nil {
		t.Error("a failed build left a pool behind for its Config")
	}
	if after := ReuseStats(); after != before {
		t.Errorf("a failed build was counted: %+v -> %+v", before, after)
	}
}

func TestReleaseTwiceParksOnce(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Delta = 77 // a Config no other test pools
	nw, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := ReuseStats()
	nw.Release()
	nw.Release()
	after := ReuseStats()
	if after.Dropped != before.Dropped+1 {
		t.Fatalf("two Releases of one network dropped %d, want 1 (the second)", after.Dropped-before.Dropped)
	}
	a, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("one network was handed out twice")
	}
	a.Release()
	b.Release()
}

func TestReleaseOfANewNetworkClosesIt(t *testing.T) {
	nw := mustNetwork(t, DefaultConfig(4, 4))
	before := ReuseStats()
	nw.Release()
	if after := ReuseStats(); after.Dropped != before.Dropped+1 {
		t.Fatalf("Release of a network built by New: %+v -> %+v, want one drop", before, after)
	}
}

// TestResetMatchesFreshBuildOnEveryShape: the pristine state is kept per
// kind of component (routers by their wired output ports), which is exact
// only if components of a kind really are built alike. Degenerate fabrics
// are where that could break: single rows and columns, a 1x1, torus rings
// that wrap onto themselves, fabrics with and without sinks. After traffic
// and a reset, each must snapshot to the bytes of a fresh build.
func TestResetMatchesFreshBuildOnEveryShape(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {3, 5}}
	var cfgs []Config
	for _, sh := range shapes {
		mesh := DefaultConfig(sh[0], sh[1])
		noSinks := mesh
		noSinks.EastSinks = false
		ina := mesh
		ina.EnableINA = true
		adaptive := noSinks
		adaptive.Routing = "westfirst"
		cfgs = append(cfgs, mesh, noSinks, ina, adaptive, DefaultTorusConfig(sh[0], sh[1]))
	}
	for _, cfg := range cfgs {
		nw, err := Acquire(cfg)
		if err != nil {
			t.Fatalf("%dx%d %s: %v", cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), err)
		}
		nodes := nw.Topology().NumNodes()
		for id := 0; id < nodes; id++ {
			n := nw.NIC(topology.NodeID(id))
			n.SetDelta(99)
			n.OnReceive(func(*nic.ReceivedPacket) {})
			for k := 1; k < nodes; k++ {
				n.SendUnicast(topology.NodeID((id + k) % nodes))
			}
			if cfg.EastSinks {
				n.SendUnicast(nw.RowSinkID(nw.Topology().Coord(topology.NodeID(id)).Row))
			}
		}
		if _, err := nw.RunUntilQuiescent(100_000); err != nil {
			t.Fatalf("%dx%d %s: %v", cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), err)
		}
		if err := nw.reset(); err != nil {
			t.Fatalf("%dx%d %s: reset: %v", cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), err)
		}
		got, want := encodedState(t, nw), encodedState(t, mustNetwork(t, cfg))
		if !bytes.Equal(got, want) {
			t.Errorf("%dx%d %s sinks=%v ina=%v routing=%s: reset network differs from a fresh build",
				cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), cfg.EastSinks, cfg.EnableINA, cfg.EffectiveRouting())
		}
		if nw.NIC(0).Delta() != cfg.Delta {
			t.Errorf("δ override survived the reset: %d", nw.NIC(0).Delta())
		}
		nw.Release()
	}
}

func encodedState(t *testing.T, nw *Network) []byte {
	t.Helper()
	s, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
