package gathernoc

import (
	"fmt"
	"testing"

	"gathernoc/internal/collective"
	"gathernoc/internal/noc"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// collectiveConfigs returns the topology grid for the metamorphic suite.
func collectiveConfigs(rows, cols int) map[string]noc.Config {
	return map[string]noc.Config{
		"mesh":  noc.DefaultConfig(rows, cols),
		"torus": noc.DefaultTorusConfig(rows, cols),
	}
}

// runCollectiveOn executes one collective to completion on a fresh fabric
// and fails the test on any oracle or broadcast mismatch.
func runCollectiveOn(t *testing.T, cfg noc.Config, ccfg collective.Config) *collective.Result {
	t.Helper()
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatalf("noc.New: %v", err)
	}
	defer nw.Close()
	ctl, err := collective.NewDriver(nw, ccfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	cycles, err := workload.Run(nw, ctl, 1_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := ctl.Result(cycles)
	if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
		t.Fatalf("oracle errors %d, broadcast errors %d", res.OracleErrors, res.BroadcastErrors)
	}
	return res
}

// TestAllReduceEqualsReduceThenBroadcast is the metamorphic identity at
// the heart of this suite: an all-reduce must be indistinguishable from a
// reduce whose result is then broadcast — bit-for-bit, on every node, for
// every transport and topology. The composition reuses the reduce run's
// sums as the broadcast operands, so any disagreement pins the defect to
// one half of the fused path.
func TestAllReduceEqualsReduceThenBroadcast(t *testing.T) {
	const rounds = 2
	for topoName, base := range collectiveConfigs(4, 4) {
		for _, alg := range []collective.Algorithm{collective.AlgTree, collective.AlgFlat, collective.AlgFused} {
			t.Run(topoName+"/"+alg.String(), func(t *testing.T) {
				cfg := base
				if alg == collective.AlgFused {
					cfg.EnableINA = true
				}
				all := runCollectiveOn(t, cfg, collective.Config{
					Op: collective.AllReduce, Algorithm: alg, Rounds: rounds, ComputeLatency: 6,
				})
				red := runCollectiveOn(t, cfg, collective.Config{
					Op: collective.Reduce, Algorithm: alg, Rounds: rounds, ComputeLatency: 6,
				})
				for r := 0; r < rounds; r++ {
					if red.Sums[r] != all.Sums[r] {
						t.Fatalf("round %d: reduce sum %#x != all-reduce sum %#x", r, red.Sums[r], all.Sums[r])
					}
				}
				bc := runCollectiveOn(t, cfg, collective.Config{
					Op: collective.Broadcast, Algorithm: alg, Rounds: rounds,
					BroadcastValues: red.Sums,
				})
				for r := 0; r < rounds; r++ {
					for node := range all.NodeValues[r] {
						if bc.NodeValues[r][node] != all.NodeValues[r][node] {
							t.Fatalf("round %d node %d: reduce∘broadcast %#x != all-reduce %#x",
								r, node, bc.NodeValues[r][node], all.NodeValues[r][node])
						}
					}
				}
			})
		}
	}
}

// TestReduceSumPermutationInvariant checks the other metamorphic relation:
// the reduction is a sum, so shuffling which PE holds which operand must
// not change any round's result, whatever the tree's merge order does to
// the intermediate partial sums.
func TestReduceSumPermutationInvariant(t *testing.T) {
	const rounds = 2
	nodes := 4 * 4
	table := make([]uint64, nodes)
	for i := range table {
		table[i] = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	valuesFor := func(perm func(int) int) func(int, int) uint64 {
		return func(node, round int) uint64 {
			return table[perm(node)] + uint64(round)*0xD1B54A32D192ED03
		}
	}
	identity := func(n int) int { return n }
	reversed := func(n int) int { return nodes - 1 - n }
	rotated := func(n int) int { return (n + 5) % nodes }

	for topoName, cfg := range collectiveConfigs(4, 4) {
		t.Run(topoName, func(t *testing.T) {
			base := runCollectiveOn(t, cfg, collective.Config{
				Op: collective.Reduce, Algorithm: collective.AlgTree, Rounds: rounds,
				Values: valuesFor(identity),
			})
			for name, perm := range map[string]func(int) int{"reversed": reversed, "rotated": rotated} {
				got := runCollectiveOn(t, cfg, collective.Config{
					Op: collective.Reduce, Algorithm: collective.AlgTree, Rounds: rounds,
					Values: valuesFor(perm),
				})
				for r := 0; r < rounds; r++ {
					if got.Sums[r] != base.Sums[r] {
						t.Errorf("%s round %d: sum %#x != identity sum %#x", name, r, got.Sums[r], base.Sums[r])
					}
				}
			}
		})
	}
}

// TestCollectiveSaturationDeadlockFree extends the deadlock matrix with a
// tree-traffic cell: a multi-round tree all-reduce shares every (topology,
// routing) fabric with a near-saturation uniform-random generator, and the
// run must drain completely with the reduction still oracle-exact. The
// stall watchdog bounds detection — a wedged cell fails within one
// no-progress window with a component diagnostic instead of burning the
// whole cycle budget.
func TestCollectiveSaturationDeadlockFree(t *testing.T) {
	for topoName, base := range collectiveConfigs(4, 4) {
		for _, routing := range []string{"xy", "westfirst", "oddeven"} {
			t.Run(topoName+"/"+routing, func(t *testing.T) {
				cfg := base
				cfg.Routing = routing
				if err := cfg.Validate(); err != nil {
					t.Skipf("combination rejected: %v", err)
				}
				nw, err := noc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				collJob, drivers, err := workload.NewCollectiveJob(nw, "sync", []collective.Config{
					{Op: collective.AllReduce, Algorithm: collective.AlgTree, Rounds: 4, ComputeLatency: 4},
				}, false)
				if err != nil {
					t.Fatal(err)
				}
				gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
					Pattern:       traffic.UniformRandom{Nodes: nw.Topology().NumNodes()},
					InjectionRate: 0.4,
					PacketFlits:   2,
					Warmup:        50,
					Measure:       400,
					Seed:          7,
				})
				if err != nil {
					t.Fatal(err)
				}
				jobs := []workload.Job{collJob, {
					Name:   "saturate",
					Phases: []workload.Phase{{Name: "traffic", Driver: gen}},
				}}
				s, err := workload.New(nw, jobs)
				if err != nil {
					t.Fatal(err)
				}
				nw.Engine().SetWatchdog(nw.Watchdog(20_000))
				res, err := s.Run(5_000_000)
				if err != nil {
					t.Fatalf("did not drain (deadlock?): %v", err)
				}
				snap := drivers[0].Snapshot()
				if snap.OracleErrors != 0 || snap.BroadcastErrors != 0 {
					t.Errorf("%d oracle / %d broadcast errors under saturation",
						snap.OracleErrors, snap.BroadcastErrors)
				}
				if gen.Sent() == 0 || gen.Sent() != gen.Delivered() {
					t.Errorf("saturator sent %d, delivered %d", gen.Sent(), gen.Delivered())
				}
				if res.OrphanPackets != 0 || res.OrphanPayloads != 0 {
					t.Errorf("orphans: %d packets, %d payloads", res.OrphanPackets, res.OrphanPayloads)
				}
				if err := nw.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCollectiveShardEquivalence is the determinism contract extended to
// the collectives: every topology × routing × transport cell must produce
// bit-identical sums, per-node deliveries, timing and activity at every
// shard count. Run under -race this also exercises the sharded engine's
// ownership discipline with multicast forks and two-level gather traffic
// in flight.
func TestCollectiveShardEquivalence(t *testing.T) {
	routings := []string{"xy", "westfirst", "oddeven"}
	for topoName, base := range collectiveConfigs(4, 4) {
		for _, routing := range routings {
			for _, alg := range []collective.Algorithm{collective.AlgTree, collective.AlgFlat, collective.AlgFused} {
				t.Run(fmt.Sprintf("%s/%s/%s", topoName, routing, alg), func(t *testing.T) {
					cfg := base
					cfg.Routing = routing
					if alg == collective.AlgFused {
						cfg.EnableINA = true
					}
					if err := cfg.Validate(); err != nil {
						t.Skipf("combination rejected: %v", err)
					}
					ccfg := collective.Config{
						Op: collective.AllReduce, Algorithm: alg, Rounds: 1, ComputeLatency: 6,
					}
					var ref *collective.Result
					for _, shards := range []int{1, 2, 4} {
						scfg := cfg
						scfg.Shards = shards
						res := runCollectiveOn(t, scfg, ccfg)
						if ref == nil {
							ref = res
							continue
						}
						if res.Cycles != ref.Cycles {
							t.Errorf("shards=%d: %d cycles, shard-1 ran %d", shards, res.Cycles, ref.Cycles)
						}
						if res.RootFlits != ref.RootFlits || res.Merges != ref.Merges {
							t.Errorf("shards=%d: root flits/merges %d/%d, shard-1 %d/%d",
								shards, res.RootFlits, res.Merges, ref.RootFlits, ref.Merges)
						}
						for r := range ref.Sums {
							if res.Sums[r] != ref.Sums[r] {
								t.Errorf("shards=%d round %d: sum %#x != %#x", shards, r, res.Sums[r], ref.Sums[r])
							}
							for node := range ref.NodeValues[r] {
								if res.NodeValues[r][node] != ref.NodeValues[r][node] {
									t.Errorf("shards=%d round %d node %d: %#x != %#x",
										shards, r, node, res.NodeValues[r][node], ref.NodeValues[r][node])
								}
							}
						}
					}
				})
			}
		}
	}
}
