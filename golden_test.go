package gathernoc

import (
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/collective"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/systolic"
	"gathernoc/internal/workload"
)

// TestGoldenDeterminism pins the simulator's exact cycle counts for a
// reference configuration. These values are a contract: the simulation is
// bit-for-bit deterministic, so any change here means the timing model
// changed and the results in README.md need re-measuring.
func TestGoldenDeterminism(t *testing.T) {
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	if !ok {
		t.Fatal("Conv1 missing")
	}

	ru, err := core.RunLayer(8, 8, layer, systolic.RepetitiveUnicast, core.Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.RunLayer(8, 8, layer, systolic.GatherMode, core.Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}

	// One round of AlexNet Conv1 on the Table I 8x8 configuration:
	// C·R·R + T_MAC = 368 compute cycles plus the measured collection
	// phases (57 for RU under per-packet buffer transactions, 38 for the
	// single gather packet).
	if got := int64(ru.Result.RoundCycles.Mean()); got != 425 {
		t.Errorf("RU round = %d cycles, golden 425", got)
	}
	if got := int64(g.Result.RoundCycles.Mean()); got != 406 {
		t.Errorf("gather round = %d cycles, golden 406", got)
	}

	// Gather wire activity for one full round: the 8 per-row packets are
	// 4 flits each; every non-initiator PE piggybacked.
	if got := g.Result.PiggybackAcks; got != 56 {
		t.Errorf("piggyback acks = %d, golden 56 (7 cols x 8 rows)", got)
	}
	if got := g.Result.SelfInitiatedGathers; got != 0 {
		t.Errorf("self-initiated = %d, golden 0", got)
	}

	// Re-running must give identical activity — full determinism.
	g2, err := core.RunLayer(8, 8, layer, systolic.GatherMode, core.Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Events != g2.Events {
		t.Errorf("replay diverged:\n%+v\n%+v", g.Events, g2.Events)
	}

	// The sharded engine is the same contract from a different backend:
	// the row-partitioned two-phase schedule must land on the identical
	// golden numbers at every shard count (here the interesting extremes;
	// the full matrix runs in TestShardedEngineEquivalenceLayers).
	for _, shards := range []int{1, 4} {
		gs, err := core.RunLayer(8, 8, layer, systolic.GatherMode, core.Options{
			Rounds:        1,
			MutateNetwork: func(c *noc.Config) { c.Shards = shards },
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(gs.Result.RoundCycles.Mean()); got != 406 {
			t.Errorf("shards=%d gather round = %d cycles, golden 406", shards, got)
		}
		if g.Events != gs.Events {
			t.Errorf("shards=%d activity diverged:\n%+v\n%+v", shards, g.Events, gs.Events)
		}
	}
}

// TestGoldenCollectives pins the tree collectives' exact timing and root
// traffic on the reference 8x8 fabrics — the same contract as
// TestGoldenDeterminism extended to the mesh-wide collective layer, at
// every shard count. On the mesh the reduce roots at the last row's sink
// (2-round gather: 8 flits); on the torus it roots at the east-column PE,
// whose ejector also sees its own row's level-1 packets. The broadcast is
// topology-independent: one 2-flit multicast per round from the corner.
func TestGoldenCollectives(t *testing.T) {
	type golden struct {
		round     int64
		rootFlits uint64
		merges    uint64
	}
	goldens := map[string]golden{
		"mesh/reduce":     {round: 86, rootFlits: 8, merges: 126},
		"mesh/bcast":      {round: 74, rootFlits: 4, merges: 0},
		"mesh/allreduce":  {round: 150, rootFlits: 20, merges: 126},
		"torus/reduce":    {round: 62, rootFlits: 32, merges: 108},
		"torus/bcast":     {round: 74, rootFlits: 4, merges: 0},
		"torus/allreduce": {round: 126, rootFlits: 36, merges: 108},
	}
	for _, topo := range []string{"mesh", "torus"} {
		for _, op := range []collective.Op{collective.Reduce, collective.Broadcast, collective.AllReduce} {
			key := topo + "/" + op.String()
			t.Run(key, func(t *testing.T) {
				want := goldens[key]
				for _, shards := range []int{1, 2, 4} {
					cfg := noc.DefaultConfig(8, 8)
					if topo == "torus" {
						cfg = noc.DefaultTorusConfig(8, 8)
					}
					cfg.Shards = shards
					nw, err := noc.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ctl, err := collective.NewDriver(nw, collective.Config{
						Op: op, Algorithm: collective.AlgTree, Rounds: 2, ComputeLatency: 10,
					})
					if err != nil {
						nw.Close()
						t.Fatal(err)
					}
					cycles, err := workload.Run(nw, ctl, 1_000_000)
					res := ctl.Result(cycles)
					nw.Close()
					if err != nil {
						t.Fatal(err)
					}
					if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
						t.Fatalf("shards=%d: %d oracle / %d broadcast errors",
							shards, res.OracleErrors, res.BroadcastErrors)
					}
					if got := int64(res.RoundCycles.Mean()); got != want.round {
						t.Errorf("shards=%d round = %d cycles, golden %d", shards, got, want.round)
					}
					if res.RootFlits != want.rootFlits {
						t.Errorf("shards=%d root flits = %d, golden %d", shards, res.RootFlits, want.rootFlits)
					}
					if res.Merges != want.merges {
						t.Errorf("shards=%d merges = %d, golden %d", shards, res.Merges, want.merges)
					}
				}
			})
		}
	}
}
