package traffic

import (
	"fmt"
	"testing"

	"gathernoc/internal/noc"
)

// TestTorusCollectionSchemesOracle runs the accumulation-phase workload
// on a torus for every routing and collection scheme: the rounds must
// complete (no deadlock among collective, self-initiated and background
// packets) and every row reduction must match the software oracle bit
// for bit. On the torus the controller follows the network's RowLine
// plan — two initiators per row under wrap-aware dimension-order routing,
// a column-0 initiator under the mesh-sub-network adaptive routings.
func TestTorusCollectionSchemesOracle(t *testing.T) {
	for _, routing := range []string{"xy", "oddeven", "westfirst"} {
		for _, scheme := range []CollectScheme{CollectUnicast, CollectGather, CollectINA} {
			name := fmt.Sprintf("%s/%s", routing, scheme)
			t.Run(name, func(t *testing.T) {
				cfg := noc.DefaultTorusConfig(4, 6)
				cfg.Routing = routing
				cfg.EnableINA = scheme == CollectINA
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
				cycles, err := runAlone(nw, ctl, 2_000_000)
				if err != nil {
					t.Fatal(err)
				}
				res := ctl.Result(cycles)
				if res.OracleErrors != 0 {
					t.Fatalf("%d oracle errors", res.OracleErrors)
				}
				if res.RoundCycles.N() != 2 {
					t.Fatalf("completed %v rounds, want 2", res.RoundCycles.N())
				}
				if scheme == CollectINA && res.Merges == 0 && routing == "xy" {
					t.Error("wrap-aware INA collection produced no in-network merges")
				}
				if scheme == CollectGather && res.Merges == 0 {
					// Merges counts MergeAcks (INA); gather pickups land in
					// piggyback acks — assert via self-initiation staying
					// below the everyone-falls-back worst case instead.
					if res.SelfInitiated >= uint64(cfg.Rows*cfg.Cols*2) {
						t.Errorf("gather collection degenerated to all self-initiations (%d)", res.SelfInitiated)
					}
				}
			})
		}
	}
}

// TestMeshCollectionWithoutSinks exercises the RowLine fallback on a
// plain mesh with EastSinks disabled: collection targets the east-column
// PE and the oracle must still pass.
func TestMeshCollectionWithoutSinks(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	cfg.EastSinks = false
	cfg.EnableINA = true
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewAccumulationController(nw, AccumulationConfig{
		Scheme: CollectINA, Rounds: 2, ComputeLatency: 5,
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
		t.Fatalf("%d oracle errors", res.OracleErrors)
	}
}
