package noc_test

import (
	"bytes"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/round"
	"gathernoc/internal/systolic"
)

// snapshotOf returns the absolute state of nw and its engine clock.
func snapshotOf(t *testing.T, nw *noc.Network) *noc.Snapshot {
	t.Helper()
	s, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReleaseKeepsAnUnfedFabric: a layer run replayed from a trajectory
// table hands its NICs no work, and Release keeps the fabric without
// reloading it; the next Acquire must get a fabric whose absolute state
// equals a fresh noc.New's, byte for byte. RU and gather layers, and a
// gather layer on a fabric with in-network accumulation on (its reduce
// stations and δ), on 8x8 and 16x16. A run that sent one packet and
// drained takes the full reload, and comes back fresh too.
func TestReleaseKeepsAnUnfedFabric(t *testing.T) {
	layers := cnn.AlexNetConvLayers()
	for _, mesh := range []int{8, 16} {
		for _, c := range []struct {
			name string
			mode systolic.Mode
			ina  bool
		}{
			{"RU", systolic.RepetitiveUnicast, false},
			{"gather", systolic.GatherMode, false},
			{"INA", systolic.GatherMode, true},
		} {
			opts := core.Options{Rounds: 3}
			if c.ina {
				opts.MutateNetwork = func(cfg *noc.Config) { cfg.EnableINA = true }
			}
			cfg := noc.DefaultConfig(mesh, mesh)
			if opts.MutateNetwork != nil {
				opts.MutateNetwork(&cfg)
			}
			fresh, err := noc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotOf(t, fresh)
			fresh.Close()
			same := func(nw *noc.Network, what string) {
				t.Helper()
				if got := snapshotOf(t, nw); got.Cycle != want.Cycle || !bytes.Equal(got.State, want.State) {
					t.Errorf("%s %dx%d: after %s the fabric's state differs from a fresh build's (cycle %d, %d bytes; want %d, %d)",
						c.name, mesh, mesh, what, got.Cycle, len(got.State), want.Cycle, len(want.State))
				}
			}

			var table round.Trajectories
			if _, err := core.Simulate(&table, mesh, mesh, layers[0], c.mode, opts); err != nil {
				t.Fatal(err)
			}
			before, replayed := noc.ReuseStats(), round.Replayed()
			if _, err := core.Simulate(&table, mesh, mesh, layers[1], c.mode, opts); err != nil {
				t.Fatal(err)
			}
			after := noc.ReuseStats()
			if round.Replayed() != replayed+1 || after.Kept != before.Kept+1 || after.Dropped != before.Dropped {
				t.Fatalf("%s %dx%d: %d replayed, %d kept, %d dropped; want the run replayed and its fabric kept",
					c.name, mesh, mesh, round.Replayed()-replayed, after.Kept-before.Kept, after.Dropped-before.Dropped)
			}
			nw, err := noc.Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if noc.ReuseStats().Reused != after.Reused+1 {
				t.Fatal("the kept fabric was not handed out again")
			}
			same(nw, "a replayed run")

			nw.NIC(0).SendUnicastN(0, 1, cfg.UnicastFlits)
			if _, err := nw.RunUntilQuiescent(100_000); err != nil {
				t.Fatal(err)
			}
			before = noc.ReuseStats()
			nw.Release()
			if after := noc.ReuseStats(); after.Kept != before.Kept || after.Dropped != before.Dropped {
				t.Fatalf("%s %dx%d: a run that sent a packet was kept (%d) or dropped (%d)",
					c.name, mesh, mesh, after.Kept-before.Kept, after.Dropped-before.Dropped)
			}
			nw, err = noc.Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			same(nw, "a run that sent a packet")
			nw.Release()
		}
	}
}
