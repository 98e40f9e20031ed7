package gathernoc

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/collective"
	"gathernoc/internal/core"
	"gathernoc/internal/experiments"
	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/sim"
	"gathernoc/internal/systolic"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// The reuse equivalence suite (DESIGN.md §14, "Reuse"): a network that
// noc.Release parked and noc.Acquire handed out again must be
// indistinguishable from one noc.New just built, whatever ran on it before.

// reusePredecessor is a run that leaves its marks on a network before the
// network is released: each one touches state the reset has to put back.
type reusePredecessor struct {
	name string
	// ina marks predecessors that need Config.EnableINA.
	ina bool
	run func(t *testing.T, nw *noc.Network)
}

func conv3(t *testing.T) cnn.LayerConfig {
	t.Helper()
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	if !ok {
		t.Fatal("Conv3 missing")
	}
	return layer
}

// collectOn runs a collection round in the given scheme: the systolic
// controller where the fabric has east sinks, the accumulation controller
// (which also collects on a torus) where it has none.
func collectOn(t *testing.T, nw *noc.Network, mode systolic.Mode, scheme traffic.CollectScheme) {
	t.Helper()
	if nw.Config().EastSinks && scheme != traffic.CollectINA {
		if _, err := systolicOn(nw, conv3(t), mode, 1); err != nil {
			t.Fatalf("predecessor: %v", err)
		}
		return
	}
	ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
		Scheme: scheme, Rounds: 2, ComputeLatency: 20,
	})
	if err != nil {
		t.Fatalf("predecessor: %v", err)
	}
	if _, err := workload.Run(nw, ctl, 1_000_000); err != nil {
		t.Fatalf("predecessor: %v", err)
	}
}

func reusePredecessors() []reusePredecessor {
	return []reusePredecessor{
		{name: "RU", run: func(t *testing.T, nw *noc.Network) {
			collectOn(t, nw, systolic.RepetitiveUnicast, traffic.CollectUnicast)
		}},
		// Gather mode scales δ per column through NIC.SetDelta, an
		// override no snapshot carries.
		{name: "gather-scaled-delta", run: func(t *testing.T, nw *noc.Network) {
			collectOn(t, nw, systolic.GatherMode, traffic.CollectGather)
		}},
		// INA scales the same δ and fills the accumulation stations.
		{name: "INA", ina: true, run: func(t *testing.T, nw *noc.Network) {
			collectOn(t, nw, systolic.GatherMode, traffic.CollectINA)
		}},
		// A saturated generator grows every ring and freelist, trips the
		// engine's naive bursts and leaves receive callbacks on every NIC.
		{name: "saturated-generator", run: func(t *testing.T, nw *noc.Network) {
			gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
				Pattern:       traffic.UniformRandom{Nodes: nw.Topology().NumNodes()},
				InjectionRate: 0.30,
				PacketFlits:   2,
				Measure:       400,
				Seed:          3,
			})
			if err != nil {
				t.Fatalf("predecessor: %v", err)
			}
			// Registered by hand, as nocsim and the mixed-traffic experiment
			// do: nothing but the reset takes this driver off the engine, or
			// puts back the engine mode the run changed.
			nw.Engine().AddTicker(gen)
			nw.Engine().SetAlwaysTick(true)
			done := func() bool { return gen.Injected() && nw.Quiescent() }
			if _, err := nw.Engine().RunUntil(done, 1_000_000); err != nil {
				t.Fatalf("predecessor: %v", err)
			}
		}},
		// Released in the middle of a jump: a round loop asleep with its
		// timer armed for the end of the compute time, the clock stopped
		// short of it by Run's own end, the jump counters running. The
		// fabric is quiescent, so Release parks it.
		{name: "mid-jump", run: func(t *testing.T, nw *noc.Network) {
			ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
				Scheme: traffic.CollectUnicast, Rounds: 1, ComputeLatency: 5000,
			})
			if err != nil {
				t.Fatalf("predecessor: %v", err)
			}
			nw.OnReceive(ctl.OnPacket)
			ctl.Start(0)
			eng := nw.Engine()
			ctl.SetWake(eng.AddTicker(ctl))
			// Reaching the predicate, not the budget, is a clean finish.
			eng.RunUntil(func() bool { return eng.Cycle() >= 1234 }, 1234)
			if eng.Jumps() != 1 || eng.Cycle() != 1234 {
				t.Fatalf("predecessor: %d jumps, cycle %d", eng.Jumps(), eng.Cycle())
			}
		}},
	}
}

// systolicOn is core.RunLayer's simulation on a network the caller holds.
func systolicOn(nw *noc.Network, layer cnn.LayerConfig, mode systolic.Mode, rounds int) (*systolic.Result, error) {
	return systolicRun(nw, systolic.Config{Layer: layer, Mode: mode, TMAC: 5, MaxRounds: rounds})
}

func systolicRun(nw *noc.Network, cfg systolic.Config) (*systolic.Result, error) {
	ctl, err := systolic.NewController(nw, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := workload.Run(nw, ctl, 50_000_000); err != nil {
		return nil, err
	}
	return ctl.Result(), nil
}

// reuseSubject is a run whose result must not depend on the network's past.
type reuseSubject struct {
	name string
	cfg  noc.Config
	run  func(t *testing.T, nw *noc.Network) any
}

func reuseSubjects(t *testing.T) []reuseSubject {
	var subjects []reuseSubject
	layerSubject := func(name string, layer cnn.LayerConfig, mode systolic.Mode, rounds int, golden int64) {
		subjects = append(subjects, reuseSubject{
			name: name,
			cfg:  noc.DefaultConfig(8, 8),
			run: func(t *testing.T, nw *noc.Network) any {
				// "flat-delta" is the δ ablation's cell: the one run that
				// takes every NIC's δ as it finds it.
				res, err := systolicRun(nw, systolic.Config{
					Layer: layer, Mode: mode, TMAC: 5, MaxRounds: rounds, FlatDelta: name == "flat-delta",
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.PayloadErrors != 0 {
					t.Fatalf("%d payload errors", res.PayloadErrors)
				}
				if got := int64(res.RoundCycles.Mean()); golden != 0 && got != golden {
					t.Errorf("round = %d cycles, golden %d", got, golden)
				}
				return res
			},
		})
	}
	conv1, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	if !ok {
		t.Fatal("Conv1 missing")
	}
	// The pins of TestGoldenDeterminism.
	layerSubject("golden/RU", conv1, systolic.RepetitiveUnicast, 1, 425)
	layerSubject("golden/Gather", conv1, systolic.GatherMode, 1, 406)
	// Every Table II cell, as experiments.Table2 simulates it.
	for _, layer := range cnn.AlexNetConvLayers() {
		layerSubject("table2/"+layer.Name+"/RU", layer, systolic.RepetitiveUnicast, 2, 0)
		layerSubject("table2/"+layer.Name+"/Gather", layer, systolic.GatherMode, 2, 0)
	}

	layer := conv3(t)
	layerSubject("flat-delta", layer, systolic.GatherMode, 2, 0)

	inaCfg := noc.DefaultConfig(8, 8)
	inaCfg.EnableINA = true
	subjects = append(subjects, reuseSubject{
		name: "ina/Conv3", cfg: inaCfg,
		run: func(t *testing.T, nw *noc.Network) any {
			ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
				Scheme:         traffic.CollectINA,
				Rounds:         2,
				TotalRounds:    layer.AccumulationRounds(8),
				ComputeLatency: layer.PartialMACsPerPE(8) + 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := workload.Run(nw, ctl, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			res := ctl.Result(cycles)
			if res.OracleErrors != 0 {
				t.Fatalf("%d oracle errors", res.OracleErrors)
			}
			return res
		},
	})
	// The NIC API used directly, the way gatherviz and the examples do:
	// payloads and operands offered with no initiator in sight, so every
	// one of them times out on the δ its NIC holds at that moment.
	subjects = append(subjects, reuseSubject{
		name: "raw-timeouts", cfg: inaCfg,
		run: func(t *testing.T, nw *noc.Network) any {
			var seq uint64
			for row := 0; row < 8; row++ {
				for col := 1; col < 8; col++ {
					node := nw.Topology().ID(topology.Coord{Row: row, Col: col})
					seq++
					p := flit.Payload{Seq: seq, Src: node, Dst: nw.RowSinkID(row), Bits: 32, Value: seq}
					if row%2 == 0 {
						nw.NIC(node).SubmitPayload(reduce.GatherStation, 0, p)
					} else {
						p.ReduceID, p.Ops = uint64(row), 1
						nw.NIC(node).SubmitPayload(reduce.ReduceStation, 0, p)
					}
				}
			}
			cycles, err := nw.RunUntilQuiescent(100_000)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				Cycles                 int64
				Activity               noc.Activity
				SelfGather, SelfReduce uint64
			}
			out := outcome{Cycles: cycles, Activity: nw.Activity()}
			for id := 0; id < 64; id++ {
				n := nw.NIC(topology.NodeID(id))
				out.SelfGather += n.SelfInitiatedGathers.Value()
				out.SelfReduce += n.SelfInitiatedReduces.Value()
			}
			if out.SelfGather == 0 || out.SelfReduce == 0 {
				t.Fatalf("no timeouts fired: %+v", out)
			}
			return out
		},
	})
	subjects = append(subjects, reuseSubject{
		name: "torus/uniform", cfg: noc.DefaultTorusConfig(8, 8),
		run: func(t *testing.T, nw *noc.Network) any {
			gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
				Pattern:       traffic.UniformRandom{Nodes: 64},
				InjectionRate: 0.05,
				PacketFlits:   2,
				Warmup:        100,
				Measure:       600,
				Seed:          1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := gen.Run(20_000_000)
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	})
	subjects = append(subjects, reuseSubject{
		name: "collective/allreduce-tree", cfg: inaCfg,
		run: func(t *testing.T, nw *noc.Network) any {
			ctl, err := collective.NewDriver(nw, collective.Config{
				Op: collective.AllReduce, Algorithm: collective.AlgTree, Rounds: 2, ComputeLatency: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := workload.Run(nw, ctl, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			res := ctl.Result(cycles)
			if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
				t.Fatalf("%d oracle / %d broadcast errors", res.OracleErrors, res.BroadcastErrors)
			}
			return res
		},
	})
	return subjects
}

// releasedAfter runs pred on an acquired network of cfg, releases it and
// acquires again: Release must park it (a drop fails the test) and the free
// list hands out what was parked last, so this is that very network.
func releasedAfter(t *testing.T, cfg noc.Config, pred func(*testing.T, *noc.Network)) *noc.Network {
	t.Helper()
	nw, err := noc.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred(t, nw)
	dropped := noc.ReuseStats().Dropped
	nw.Release()
	if noc.ReuseStats().Dropped != dropped {
		t.Fatal("Release dropped a network that finished cleanly")
	}
	again, err := noc.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != nw {
		t.Fatal("the released network was not the one handed out next")
	}
	return again
}

func snapshotBytes(t *testing.T, nw *noc.Network) []byte {
	t.Helper()
	s, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := noc.EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReuseEquivalence runs every subject on a network that an arbitrary
// predecessor used and released, and on a fresh noc.New: the results must be
// deep-equal and the released network's snapshot must be byte-equal to the
// fresh build's before the run starts.
func TestReuseEquivalence(t *testing.T) {
	for _, sub := range reuseSubjects(t) {
		for _, pred := range reusePredecessors() {
			sub, pred := sub, pred
			t.Run(sub.name+"/after-"+pred.name, func(t *testing.T) {
				cfg := sub.cfg
				if pred.ina {
					cfg.EnableINA = true
				}
				fresh, err := noc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reused := releasedAfter(t, cfg, pred.run)
				defer reused.Release()

				if got, want := snapshotBytes(t, reused), snapshotBytes(t, fresh); !bytes.Equal(got, want) {
					t.Fatalf("snapshot of the released network differs from a fresh build's (%d vs %d bytes)", len(got), len(want))
				}
				if got, want := reused.FlitPool().Live(), 0; got != want {
					t.Fatalf("released network has %d flits outstanding", got)
				}
				want := sub.run(t, fresh)
				got := sub.run(t, reused)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("result on the released network differs from the fresh one:\nreleased %+v\nfresh    %+v", got, want)
				}
				// The one visible difference: the released network's flit
				// pool counts from zero again but keeps its freelist.
				if got, max := reused.FlitPool().Misses(), fresh.FlitPool().Misses(); got > max {
					t.Errorf("flit pool misses %d on the released network, %d on the fresh one", got, max)
				}
				if e, f := reused.Engine(), fresh.Engine(); e.Evaluated() != f.Evaluated() || e.Skipped() != f.Skipped() || e.Cycle() != f.Cycle() ||
					e.Jumps() != f.Jumps() || e.JumpedCycles() != f.JumpedCycles() {
					t.Errorf("engine accounting differs: released %d evaluated %d skipped at cycle %d (%d jumps over %d), fresh %d/%d at %d (%d over %d)",
						e.Evaluated(), e.Skipped(), e.Cycle(), e.Jumps(), e.JumpedCycles(),
						f.Evaluated(), f.Skipped(), f.Cycle(), f.Jumps(), f.JumpedCycles())
				}
			})
		}
	}
}

// TestReuseGoldenThroughRunLayer holds the 425/406 pins through the public
// path, core.RunLayer, with a reuse counted between the two runs.
func TestReuseGoldenThroughRunLayer(t *testing.T) {
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	if !ok {
		t.Fatal("Conv1 missing")
	}
	before := noc.ReuseStats()
	g, err := core.RunLayer(8, 8, layer, systolic.GatherMode, core.Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	ru, err := core.RunLayer(8, 8, layer, systolic.RepetitiveUnicast, core.Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(g.Result.RoundCycles.Mean()); got != 406 {
		t.Fatalf("gather round = %d cycles, golden 406", got)
	}
	if got := int64(ru.Result.RoundCycles.Mean()); got != 425 {
		t.Fatalf("RU round = %d cycles, golden 425", got)
	}
	after := noc.ReuseStats()
	if after.Dropped != before.Dropped {
		t.Fatalf("RunLayer dropped %d networks", after.Dropped-before.Dropped)
	}
	if after.Reused == before.Reused {
		t.Fatalf("two RunLayer calls on one configuration reused no network: %+v -> %+v", before, after)
	}
	// Each round is a compute stretch the engine jumps over and a collection
	// it steps through; the reuse counters say so for the pair.
	if jumped, cycles := after.JumpedCycles-before.JumpedCycles, after.Cycles-before.Cycles; after.Jumps == before.Jumps || jumped == 0 || jumped >= cycles {
		t.Errorf("the two runs jumped %d of %d cycles in %d jumps", jumped, cycles, after.Jumps-before.Jumps)
	}
}

// TestReuseDropsUnfinishedRuns checks what Release refuses to park: a
// network whose run hit its cycle budget, was interrupted, or left flits in
// flight. Each case uses a Config of its own so that the pool under it is
// known to be empty: the Acquire that follows must build.
func TestReuseDropsUnfinishedRuns(t *testing.T) {
	inject := func(nw *noc.Network) {
		for id := 0; id < 16; id++ {
			nw.NIC(topology.NodeID(id)).SendUnicastN(0, topology.NodeID(63-id), 2)
		}
	}
	cases := []struct {
		name  string
		delta int64
		spoil func(t *testing.T, nw *noc.Network)
	}{
		{"max-cycles", 101, func(t *testing.T, nw *noc.Network) {
			// The budget error alone must drop it: the fabric has drained.
			if _, err := nw.Engine().RunUntil(func() bool { return false }, 10); !errors.Is(err, sim.ErrMaxCyclesExceeded) {
				t.Fatalf("err = %v, want ErrMaxCyclesExceeded", err)
			}
			if !nw.Quiescent() {
				t.Fatal("an idle fabric is not quiescent")
			}
		}},
		{"interrupted", 102, func(t *testing.T, nw *noc.Network) {
			inject(nw)
			nw.Engine().Interrupt()
			if _, err := nw.RunUntilQuiescent(1000); !errors.Is(err, sim.ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
		}},
		{"in-flight", 103, func(t *testing.T, nw *noc.Network) {
			inject(nw)
			nw.Engine().RunUntil(never, 5)
			if nw.Quiescent() {
				t.Fatal("fabric drained in 5 cycles")
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := noc.DefaultConfig(8, 8)
			cfg.Delta = c.delta
			nw, err := noc.Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.spoil(t, nw)
			before := noc.ReuseStats()
			nw.Release()
			if got := noc.ReuseStats().Dropped - before.Dropped; got != 1 {
				t.Fatalf("Release dropped %d networks, want 1", got)
			}
			next, err := noc.Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer next.Release()
			after := noc.ReuseStats()
			if next == nw || after.Reused != before.Reused || after.Built != before.Built+1 {
				t.Fatalf("the dropped network came back: %+v -> %+v", before, after)
			}
		})
	}
}

// TestReuseNeverPoolsShardedOrObservedFabrics: a sharded network, and one
// with telemetry or fault injection on, go through Acquire and Release like
// any other and are closed, not parked.
func TestReuseNeverPoolsShardedOrObservedFabrics(t *testing.T) {
	tele := telemetry.DefaultConfig()
	for name, mutate := range map[string]func(*noc.Config){
		"sharded":   func(c *noc.Config) { c.Shards = 2 },
		"telemetry": func(c *noc.Config) { c.Telemetry = &tele },
		"faults":    func(c *noc.Config) { c.Faults = &fault.Config{Seed: 1, DropRate: 0.001} },
	} {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			cfg := noc.DefaultConfig(8, 8)
			mutate(&cfg)
			before := noc.ReuseStats()
			for i := 0; i < 2; i++ {
				nw, err := noc.Acquire(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := systolicOn(nw, conv3(t), systolic.GatherMode, 1); err != nil {
					t.Fatal(err)
				}
				nw.Release()
			}
			after := noc.ReuseStats()
			if after.Built != before.Built+2 || after.Dropped != before.Dropped+2 || after.Reused != before.Reused {
				t.Fatalf("%+v -> %+v, want two built and two dropped", before, after)
			}
		})
	}
}

// TestReuseResultsSurviveTheNetwork: what a run returned must share no
// memory with the fabric. Each result is encoded when it is returned and
// again after the same network has been through two more runs; stats.Sample
// chunks aliasing pooled state would show as a difference.
func TestReuseResultsSurviveTheNetwork(t *testing.T) {
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	preds := reusePredecessors()
	for i, sub := range reuseSubjects(t) {
		// One subject per kind of result.
		switch sub.name {
		case "golden/Gather", "ina/Conv3", "torus/uniform", "collective/allreduce-tree":
		default:
			continue
		}
		i, sub := i, sub
		t.Run(sub.name, func(t *testing.T) {
			cfg := sub.cfg
			cfg.EnableINA = true // every predecessor can follow
			nw := releasedAfter(t, cfg, preds[i%len(preds)].run)
			res := sub.run(t, nw)
			kept := encode(res)
			nw.Release()
			for k := 1; k <= 2; k++ {
				again := releasedAfter(t, cfg, preds[(i+k)%len(preds)].run)
				sub.run(t, again)
				again.Release()
			}
			if now := encode(res); !bytes.Equal(now, kept) {
				t.Errorf("a result changed after its network was reused:\nthen %s\nnow  %s", kept, now)
			}
		})
	}
}

// TestReuseWorkerCountInvariance renders Table II and Fig. 7 on one worker
// and on four: the bytes must agree, whichever worker's released network a
// cell lands on. Every release parks, so the workers build no more than a
// fabric each per Config and drop none, however many processors they share.
// CI runs it under the race detector at -cpu 1,2.
func TestReuseWorkerCountInvariance(t *testing.T) {
	const workers, configs = 4, 2 // the 8x8 and the 16x16 Table I mesh
	render := func(workers int) string {
		opts := experiments.Options{Rounds: 1, Workers: workers}
		t2, err := experiments.Table2(opts)
		if err != nil {
			t.Fatal(err)
		}
		f7, err := experiments.Fig7(opts)
		if err != nil {
			t.Fatal(err)
		}
		return experiments.RenderTable2(t2) + experiments.RenderImprovements("Fig. 7", "%", f7)
	}
	before := noc.ReuseStats()
	one := render(1)
	four := render(workers)
	if one != four {
		t.Errorf("rendered bytes depend on the worker count:\n--- workers=1\n%s--- workers=4\n%s", one, four)
	}
	after := noc.ReuseStats()
	if after.Reused == before.Reused {
		t.Errorf("the sweeps reused no network: %+v -> %+v", before, after)
	}
	if after.Dropped != before.Dropped {
		t.Errorf("the sweeps dropped %d networks", after.Dropped-before.Dropped)
	}
	if built := after.Built - before.Built; built > configs*workers {
		t.Errorf("the sweeps built %d networks, want at most %d: %+v -> %+v", built, configs*workers, before, after)
	}
}
