package gathernoc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/collective"
	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/round"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/systolic"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// sameSample reports whether two samples hold bit-identical statistics.
func sameSample(a, b *stats.Sample) bool {
	return a.N() == b.N() && a.Sum() == b.Sum() &&
		a.Min() == b.Min() && a.Max() == b.Max() &&
		a.Percentile(50) == b.Percentile(50) && a.Percentile(99) == b.Percentile(99)
}

// layerRun runs one round of a layer alone on a fresh 8x8 mesh, the cell
// core.RunLayer(8, 8, layer, mode, {Rounds: 1}) simulates, on the naive
// always-tick engine or the sleep/wake one, and returns its Result.
func layerRun(tb testing.TB, layer cnn.LayerConfig, mode systolic.Mode, alwaysTick bool) *systolic.Result {
	tb.Helper()
	nw, err := noc.New(noc.DefaultConfig(8, 8))
	if err != nil {
		tb.Fatal(err)
	}
	defer nw.Close()
	nw.Engine().SetAlwaysTick(alwaysTick)
	ctl, err := systolic.NewController(nw, systolic.Config{Layer: layer, Mode: mode, TMAC: 5, MaxRounds: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := workload.Run(nw, ctl, 50_000_000); err != nil {
		tb.Fatal(err)
	}
	return ctl.Result()
}

// TestEngineEquivalenceLayers is the golden replay proof for the
// sleep/wake engine: the activity-tracked scheduler must produce
// bit-identical results to the naive always-tick engine for the paper's
// workloads. Any divergence — one counter, one cycle — means a component
// either mutated state in a tick it claimed was idle, or missed a wake.
func TestEngineEquivalenceLayers(t *testing.T) {
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	if !ok {
		t.Fatal("Conv1 missing")
	}
	for _, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
		t.Run(mode.String(), func(t *testing.T) {
			naive := layerRun(t, layer, mode, true)
			tracked := layerRun(t, layer, mode, false)
			if !reflect.DeepEqual(naive.Record, tracked.Record) {
				t.Errorf("records diverged:\nnaive   %+v\ntracked %+v", naive.Record, tracked.Record)
			}
			if naive.PayloadErrors != 0 {
				t.Errorf("%d payload errors", naive.PayloadErrors)
			}
		})
	}
}

// TestEngineEquivalenceSyntheticTraffic replays identical seeded
// uniform-random workloads on both engine paths across injection rates
// (including saturation) and requires bit-identical packet accounting,
// latency statistics and network activity.
func TestEngineEquivalenceSyntheticTraffic(t *testing.T) {
	for _, rate := range []float64{0.005, 0.05, 0.30} {
		rate := rate
		t.Run(ratename(rate), func(t *testing.T) {
			type outcome struct {
				res      *traffic.GeneratorResult
				activity noc.Activity
				skipped  uint64
			}
			run := func(alwaysTick bool) outcome {
				t.Helper()
				cfg := noc.DefaultConfig(8, 8)
				cfg.EastSinks = false
				nw, err := noc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				nw.Engine().SetAlwaysTick(alwaysTick)
				gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
					Pattern:       traffic.UniformRandom{Nodes: 64},
					InjectionRate: rate,
					PacketFlits:   2,
					Warmup:        200,
					Measure:       1800,
					Seed:          7,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := gen.Run(1_000_000)
				if err != nil {
					t.Fatal(err)
				}
				return outcome{res: res, activity: nw.Activity(), skipped: nw.Engine().Skipped()}
			}
			naive := run(true)
			tracked := run(false)

			if naive.activity != tracked.activity {
				t.Errorf("activity diverged:\nnaive   %+v\ntracked %+v", naive.activity, tracked.activity)
			}
			n, tr := naive.res, tracked.res
			if n.Injected != tr.Injected || n.Received != tr.Received || n.Cycles != tr.Cycles {
				t.Errorf("accounting diverged: naive inj=%d recv=%d cyc=%d, tracked inj=%d recv=%d cyc=%d",
					n.Injected, n.Received, n.Cycles, tr.Injected, tr.Received, tr.Cycles)
			}
			for _, s := range []struct {
				name         string
				naive, track *stats.Sample
			}{
				{"latency", &n.Latency, &tr.Latency},
				{"queue-latency", &n.QueueLatency, &tr.QueueLatency},
				{"network-latency", &n.NetworkLatency, &tr.NetworkLatency},
			} {
				if !sameSample(s.naive, s.track) {
					t.Errorf("%s sample diverged: naive %s, tracked %s", s.name, s.naive, s.track)
				}
			}
			if naive.skipped != 0 {
				t.Errorf("naive engine skipped %d evaluations, want 0", naive.skipped)
			}
			if tracked.skipped == 0 {
				t.Error("tracked engine skipped nothing — sleep/wake not engaged, equivalence is vacuous")
			}
		})
	}
}

func ratename(rate float64) string {
	switch {
	case rate < 0.01:
		return "low"
	case rate < 0.1:
		return "mid"
	default:
		return "high"
	}
}

// TestSchedulerEquivalenceDirectGenerator proves the workload scheduler
// is a pure re-plumbing for a single job: a one-phase generator job run
// through workload.New/Run must be bit-identical — packet accounting,
// latency statistics, network activity, run length — to the same
// generator driving the network directly.
func TestSchedulerEquivalenceDirectGenerator(t *testing.T) {
	genCfg := traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Warmup:        200,
		Measure:       1500,
		Seed:          11,
	}
	newNet := func() *noc.Network {
		cfg := noc.DefaultConfig(8, 8)
		cfg.EastSinks = false
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}

	nwD := newNet()
	gd, err := traffic.NewGenerator(nwD, genCfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gd.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	nwS := newNet()
	gs, err := traffic.NewGeneratorDriver(nwS, genCfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.New(nwS, []workload.Job{
		{Name: "soak", Phases: []workload.Phase{{Name: "uniform", Driver: gs}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sched := gs.Result(res.Cycles)

	if direct.Injected != sched.Injected || direct.Received != sched.Received || direct.Cycles != sched.Cycles {
		t.Errorf("accounting diverged: direct inj=%d recv=%d cyc=%d, scheduled inj=%d recv=%d cyc=%d",
			direct.Injected, direct.Received, direct.Cycles, sched.Injected, sched.Received, sched.Cycles)
	}
	for _, c := range []struct {
		name           string
		direct, tagged *stats.Sample
	}{
		{"latency", &direct.Latency, &sched.Latency},
		{"queue-latency", &direct.QueueLatency, &sched.QueueLatency},
		{"network-latency", &direct.NetworkLatency, &sched.NetworkLatency},
		{"hops", &direct.Hops, &sched.Hops},
	} {
		if !sameSample(c.direct, c.tagged) {
			t.Errorf("%s sample diverged: direct %s, scheduled %s", c.name, c.direct, c.tagged)
		}
	}
	if nwD.Activity() != nwS.Activity() {
		t.Errorf("activity diverged:\ndirect    %+v\nscheduled %+v", nwD.Activity(), nwS.Activity())
	}
	if res.Jobs[0].PacketsEjected != gs.Delivered() || gs.Sent() != gs.Delivered() {
		t.Errorf("per-job conservation: ejected=%d sent=%d delivered=%d",
			res.Jobs[0].PacketsEjected, gs.Sent(), gs.Delivered())
	}
}

// TestSchedulerEquivalenceDirectAccumulation is the collective-traffic
// twin: a single accumulation phase (gather and INA collection) under the
// scheduler must replay the direct controller bit for bit.
func TestSchedulerEquivalenceDirectAccumulation(t *testing.T) {
	for _, scheme := range []traffic.CollectScheme{traffic.CollectGather, traffic.CollectINA} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			accCfg := traffic.AccumulationConfig{Scheme: scheme, Rounds: 3, ComputeLatency: 10}
			newNet := func() *noc.Network {
				cfg := noc.DefaultConfig(8, 8)
				cfg.EnableINA = scheme == traffic.CollectINA
				nw, err := noc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return nw
			}

			nwD := newNet()
			cd, err := traffic.NewAccumulationController(nwD, accCfg)
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := workload.Run(nwD, cd, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			direct := cd.Result(cycles)

			nwS := newNet()
			cs, err := traffic.NewAccumulationController(nwS, accCfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := workload.New(nwS, []workload.Job{
				{Name: "layer", Phases: []workload.Phase{{Name: "acc", Driver: cs}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			sched := cs.Snapshot()

			if direct.OracleErrors != 0 || sched.OracleErrors != 0 {
				t.Errorf("oracle errors: direct %d, scheduled %d", direct.OracleErrors, sched.OracleErrors)
			}
			if !sameSample(&direct.RoundCycles, &sched.RoundCycles) {
				t.Errorf("round cycles diverged: direct %s, scheduled %s", &direct.RoundCycles, &sched.RoundCycles)
			}
			if !sameSample(&direct.PacketLatency, &sched.PacketLatency) {
				t.Errorf("packet latency diverged: direct %s, scheduled %s", &direct.PacketLatency, &sched.PacketLatency)
			}
			if direct.Cycles != res.Cycles {
				t.Errorf("run length diverged: direct %d, scheduled %d", direct.Cycles, res.Cycles)
			}
			if nwD.Activity() != nwS.Activity() {
				t.Errorf("activity diverged:\ndirect    %+v\nscheduled %+v", nwD.Activity(), nwS.Activity())
			}
		})
	}
}

// TestSchedulerEquivalenceDirectSystolic is the paper layer's twin: AlexNet
// Conv3 on the 8x8 mesh, repetitive unicast and gather, two rounds, as the
// one phase of a scheduled job must replay the layer run alone under
// workload.Run — every sampled round, the extrapolated total, the payload
// checks and the fabric's activity — with no delivery left unclaimed.
func TestSchedulerEquivalenceDirectSystolic(t *testing.T) {
	for _, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := systolic.Config{Layer: conv3(t), Mode: mode, TMAC: 5, MaxRounds: 2}
			newNet := func() *noc.Network {
				nw, err := noc.New(noc.DefaultConfig(8, 8))
				if err != nil {
					t.Fatal(err)
				}
				return nw
			}

			nwD := newNet()
			cd, err := systolic.NewController(nwD, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := workload.Run(nwD, cd, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			direct := cd.Result()

			nwS := newNet()
			cs, err := systolic.NewController(nwS, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := workload.New(nwS, []workload.Job{
				{Name: "layer", Phases: []workload.Phase{{Name: "Conv3", Driver: cs}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			sched := cs.Result()

			if direct.PayloadErrors != 0 || sched.PayloadErrors != 0 {
				t.Errorf("payload errors: direct %d, scheduled %d", direct.PayloadErrors, sched.PayloadErrors)
			}
			if direct.RoundsSimulated != 2 || sched.RoundsSimulated != 2 {
				t.Errorf("rounds simulated: direct %d, scheduled %d", direct.RoundsSimulated, sched.RoundsSimulated)
			}
			if !sameSample(&direct.RoundCycles, &sched.RoundCycles) {
				t.Errorf("round cycles diverged: direct %s, scheduled %s", &direct.RoundCycles, &sched.RoundCycles)
			}
			if !sameSample(&direct.CollectionCycles, &sched.CollectionCycles) {
				t.Errorf("collection cycles diverged: direct %s, scheduled %s", &direct.CollectionCycles, &sched.CollectionCycles)
			}
			if direct.TotalCycles != sched.TotalCycles || direct.TotalCycles == 0 {
				t.Errorf("total cycles: direct %d, scheduled %d", direct.TotalCycles, sched.TotalCycles)
			}
			if cycles != res.Cycles {
				t.Errorf("run length diverged: direct %d, scheduled %d", cycles, res.Cycles)
			}
			if nwD.Activity() != nwS.Activity() {
				t.Errorf("activity diverged:\ndirect    %+v\nscheduled %+v", nwD.Activity(), nwS.Activity())
			}
			if res.OrphanPackets != 0 || res.OrphanPayloads != 0 {
				t.Errorf("%d orphan packets, %d orphan payloads", res.OrphanPackets, res.OrphanPayloads)
			}
		})
	}
}

// TestFastForwardEquivalence holds the periodicity proof and the
// trajectory table to the path that takes neither. workload.Run on a bare
// fabric proves, at each round open from round 1 on, that the round
// repeats the one before and then stops simulating (round.Loop.Settled); a
// one-phase workload.Scheduler runs every round. The subjects are every
// paper cell the benchmark's paper-cold pass simulates (Table II, Figs.
// 7–10, both full models) at MaxRounds 3 under RU and gather, and AlexNet
// Conv3 on 8×8 at MaxRounds 6 under flat δ, SkewPerHop 3, 2 VCs,
// weight-stationary, and a 16-round layer run at MaxRounds 100, which
// simulates every round (NewController clamps MaxRounds). Each
// Record must encode to the same bytes (what a Cache/v2 entry stores) and
// both paths must return the same cycle. On the paper cells the
// fast-forward must have fired: the engine clock stops short of the cycle
// Run returns. Flat δ under gather must not fire: two VCs meet in VA
// there, where the cycle-derived rotation may decide, and the rotation's
// period does not divide the round's.
//
// Every subject also runs, in order, following one shared trajectory table
// (round.Loop.Join under the key core uses), and its Record and end cycle
// must equal the proving run's. Every paper cell but the first of each
// mesh and mode is replayed from the table; no ablation is, each being the
// first of its key. The paper cells also pin the finding the table rests
// on: every round of every paper layer collects in 57 (RU) and 38
// (gather) cycles on 8×8 and 113 and 73 on 16×16, with no clock ties.
// Three runs must refuse a recorded trajectory and simulate: one whose
// compute time is below the recorded settle time, flat δ under gather
// (whose clock ties move) at another residue of the rotation than the
// recording's, and a fabric with telemetry on. Flat δ under gather a whole
// number of rotations away replays.
func TestFastForwardEquivalence(t *testing.T) {
	type subject struct {
		name string
		mesh int
		cfg  systolic.Config
		net  func(*noc.Config)
		// fires says whether the fast-forward must fire (1), must not (-1)
		// or may (0).
		fires int
	}
	var subjects []subject
	seen := map[string]bool{}
	cells := func(mesh int, layers []cnn.LayerConfig) {
		for _, l := range layers {
			for _, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
				name := fmt.Sprintf("%dx%d/%s/%s/%s", mesh, mesh, l.Model, l.Name, mode)
				if seen[name] {
					continue
				}
				seen[name] = true
				subjects = append(subjects, subject{name: name, mesh: mesh, fires: 1,
					cfg: systolic.Config{Layer: l, Mode: mode, TMAC: 5, MaxRounds: 3}})
			}
		}
	}
	for _, mesh := range []int{8, 16} {
		cells(mesh, cnn.AlexNetConvLayers())
		cells(mesh, cnn.VGG16SelectedConvLayers())
	}
	cells(8, cnn.AlexNetAllLayers())
	cells(8, cnn.VGG16AllLayers())

	sixteen := cnn.LayerConfig{Model: "test", Name: "16 rounds", InChannels: 16, OutKernels: 16,
		Kernel: 3, InputSize: 8, OutputSize: 8, Stride: 1, Pad: 1}
	for _, ab := range []struct {
		name  string
		sys   func(*systolic.Config)
		net   func(*noc.Config)
		fires [2]int // RU, gather
	}{
		{"flat δ", func(c *systolic.Config) { c.FlatDelta = true }, nil, [2]int{0, -1}},
		{"skew 3", func(c *systolic.Config) { c.SkewPerHop = 3 }, nil, [2]int{}},
		{"2 VCs", nil, func(c *noc.Config) { c.Router.VCs = 2 }, [2]int{}},
		{"WS", func(c *systolic.Config) { c.Dataflow = systolic.WeightStationary }, nil, [2]int{}},
		{"all rounds", func(c *systolic.Config) { c.Layer, c.MaxRounds = sixteen, 100 }, nil, [2]int{}},
	} {
		for i, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
			cfg := systolic.Config{Layer: conv3(t), Mode: mode, TMAC: 5, MaxRounds: 6}
			if ab.sys != nil {
				ab.sys(&cfg)
			}
			subjects = append(subjects, subject{name: "Conv3/" + ab.name + "/" + mode.String(),
				mesh: 8, cfg: cfg, net: ab.net, fires: ab.fires[i]})
		}
	}

	// collection is the per-round collection time of every paper layer, by
	// mesh and mode.
	collection := map[int][2]float64{8: {57, 38}, 16: {113, 73}}
	var table round.Trajectories
	replayed, paper, ran := round.Replayed(), 0, 0
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			ran++
			newNet := func() *noc.Network {
				cfg := noc.DefaultConfig(sub.mesh, sub.mesh)
				if sub.net != nil {
					sub.net(&cfg)
				}
				nw, err := noc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return nw
			}
			nwD := newNet()
			cd, err := systolic.NewController(nwD, sub.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := workload.Run(nwD, cd, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			clock := nwD.Engine().Cycle()

			nwS := newNet()
			cs, err := systolic.NewController(nwS, sub.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := workload.New(nwS, []workload.Job{
				{Name: "layer", Phases: []workload.Phase{{Name: sub.cfg.Layer.Name, Driver: cs}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(50_000_000)
			if err != nil {
				t.Fatal(err)
			}

			direct, sched := cd.Result(), cs.Result()
			if sub.cfg.MaxRounds == 100 && (direct.TotalRounds != 16 || direct.RoundsSimulated != 16) {
				t.Fatalf("the all-rounds subject simulates %d of %d rounds, want 16 of 16", direct.RoundsSimulated, direct.TotalRounds)
			}
			dj, err := json.Marshal(direct.Record)
			if err != nil {
				t.Fatal(err)
			}
			sj, err := json.Marshal(sched.Record)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dj, sj) {
				t.Errorf("records diverged:\nrun       %s\nscheduled %s", dj, sj)
			}
			if direct.PayloadErrors != 0 {
				t.Errorf("%d payload errors", direct.PayloadErrors)
			}
			if cycles != res.Cycles {
				t.Errorf("run ends at cycle %d, scheduled at %d", cycles, res.Cycles)
			}
			switch fired := clock < cycles; {
			case sub.fires > 0 && !fired:
				t.Errorf("fast-forward did not fire: clock %d, run ends at %d", clock, cycles)
			case sub.fires < 0 && fired:
				t.Errorf("fast-forward fired: clock %d, run ends at %d", clock, cycles)
			}

			nwT := newNet()
			ct, err := systolic.NewController(nwT, sub.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ct.Join(&table, trajectoryKey(nwT, sub.cfg))
			tcycles, err := workload.Run(nwT, ct, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got := ct.Result(); !reflect.DeepEqual(got.Record, direct.Record) || tcycles != cycles {
				t.Errorf("following the table: record %+v ending at %d, proving %+v ending at %d", got.Record, tcycles, direct.Record, cycles)
			}

			if sub.fires > 0 {
				paper++
				want := collection[sub.mesh][sub.cfg.Mode-systolic.RepetitiveUnicast]
				if c := &direct.CollectionCycles; c.Min() != want || c.Max() != want || nwD.ClockTies() != 0 {
					t.Errorf("collections of %v–%v cycles with %d clock ties, want %v with none", c.Min(), c.Max(), nwD.ClockTies(), want)
				}
			}
		})
	}
	if got, want := round.Replayed()-replayed, uint64(paper-4); ran == len(subjects) && got != want {
		t.Errorf("the table replayed %d runs, want %d: every paper cell but the first of each mesh and mode", got, want)
	}

	// Each case primes a table with a run of seed on a bare 8×8 and then
	// runs sub following it under the same key, on the bare 8×8 or on the
	// one net gives: sub replays or not as the case says, and its Record
	// and end cycle equal those of sub run without a table either way.
	bare := noc.DefaultConfig(8, 8)
	probe, err := noc.New(bare)
	if err != nil {
		t.Fatal(err)
	}
	rotation := probe.ClockPeriod()
	probe.Close()
	wider := func(n int) cnn.LayerConfig {
		l := conv3(t)
		l.InChannels += n
		return l
	}
	ru := systolic.Config{Layer: conv3(t), Mode: systolic.RepetitiveUnicast, TMAC: 5, MaxRounds: 3}
	// tiny computes one MAC with no MAC latency: its lead is one cycle.
	tiny := ru
	tiny.Layer, tiny.TMAC = cnn.LayerConfig{Model: "test", Name: "1x1", InChannels: 1, OutKernels: 1,
		Kernel: 1, InputSize: 16, OutputSize: 16, Stride: 1}, 0
	flat := systolic.Config{Layer: conv3(t), Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 6, FlatDelta: true}
	flatOff, flatOn := flat, flat
	flatOff.Layer, flatOn.Layer = wider(1), wider(int(rotation))
	gather := systolic.Config{Layer: conv3(t), Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 3}
	for _, c := range []struct {
		name      string
		seed, sub systolic.Config
		net       func(*noc.Config)
		replays   bool
	}{
		{"compute below the settle time", ru, tiny, nil, false},
		{"flat δ under gather at another residue", flat, flatOff, nil, false},
		{"flat δ under gather a rotation apart", flat, flatOn, nil, true},
		{"telemetry", gather, gather, func(c *noc.Config) { c.Telemetry = &telemetry.Config{Epoch: 64} }, false},
	} {
		t.Run("table/"+c.name, func(t *testing.T) {
			var table round.Trajectories
			run := func(cfg systolic.Config, nc noc.Config, join bool) (*systolic.Result, int64) {
				t.Helper()
				nw, err := noc.New(nc)
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				ctl, err := systolic.NewController(nw, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if join {
					ctl.Join(&table, trajectoryKey(nw, c.seed))
				}
				cycles, err := workload.Run(nw, ctl, 50_000_000)
				if err != nil {
					t.Fatal(err)
				}
				return ctl.Result(), cycles
			}
			run(c.seed, bare, true)
			nc := bare
			if c.net != nil {
				c.net(&nc)
			}
			before := round.Replayed()
			got, gotCycles := run(c.sub, nc, true)
			if replayed := round.Replayed() != before; replayed != c.replays {
				t.Errorf("replayed %v, want %v", replayed, c.replays)
			}
			if want, wantCycles := run(c.sub, nc, false); !reflect.DeepEqual(got.Record, want.Record) || gotCycles != wantCycles {
				t.Errorf("following the table: record %+v ending at %d, without %+v ending at %d", got.Record, gotCycles, want.Record, wantCycles)
			}
		})
	}
}

// trajectoryKey is the key core.CompareLayerIn follows a trajectory table
// under: the configurations less the layer and T_MAC.
func trajectoryKey(nw *noc.Network, cfg systolic.Config) any {
	cfg.Layer, cfg.TMAC = cnn.LayerConfig{}, 0
	return struct {
		net noc.Config
		sys systolic.Config
	}{nw.Config(), cfg}
}

// TestFastForwardNeedsABareFabric runs the layer of a proven subject, AlexNet
// Conv3 on 8×8 at MaxRounds 3, where the fast-forward must not apply: on a
// network with telemetry, on a faulted one, and with a generator
// registered on the engine before the run (one that injects nothing, so
// the run is the bare one's cycle for cycle). Each simulates every round:
// its engine clock is the cycle Run returns.
func TestFastForwardNeedsABareFabric(t *testing.T) {
	cfg := systolic.Config{Layer: conv3(t), Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 3}
	run := func(t *testing.T, mutate func(*noc.Config), setup func(*noc.Network)) (cycles, clock int64) {
		t.Helper()
		nc := noc.DefaultConfig(8, 8)
		if mutate != nil {
			mutate(&nc)
		}
		nw, err := noc.New(nc)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		if setup != nil {
			setup(nw)
		}
		ctl, err := systolic.NewController(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err = workload.Run(nw, ctl, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return cycles, nw.Engine().Cycle()
	}
	bare, bareClock := run(t, nil, nil)
	if bareClock >= bare {
		t.Fatalf("the bare run did not fast-forward (clock %d, ends at %d)", bareClock, bare)
	}
	for _, c := range []struct {
		name   string
		mutate func(*noc.Config)
		setup  func(*noc.Network)
	}{
		{"telemetry", func(c *noc.Config) { c.Telemetry = &telemetry.Config{Epoch: 64} }, nil},
		{"faults", func(c *noc.Config) { c.Faults = &fault.Config{DropRate: 0.001, Seed: 1} }, nil},
		{"generator", nil, func(nw *noc.Network) {
			gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
				Pattern: traffic.UniformRandom{Nodes: nw.Topology().NumNodes()}, InjectionRate: 0,
				PacketFlits: 2, Measure: 1 << 40, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			nw.Engine().AddTicker(gen)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cycles, clock := run(t, c.mutate, c.setup)
			if clock != cycles {
				t.Errorf("fast-forward fired: clock %d, run ends at %d", clock, cycles)
			}
			if c.name == "generator" && cycles != bare {
				t.Errorf("an idle generator moved the run's end from %d to %d", bare, cycles)
			}
		})
	}
}

// TestEngineEquivalenceDeadlineSleeps holds the components that sleep until
// a cycle they know (the round loop through a layer's compute time, a NIC
// through a δ wait or to a retransmission deadline, a sink through its
// per-packet stall) to the always-tick engine, which evaluates everything in
// every cycle and never moves the clock by more than one: results, fabric
// activity, protocol counters and the final cycle must agree to the bit.
// Every run spends at least a hundred cycles per round with a silent fabric,
// so the tracked engine must also have jumped.
func TestEngineEquivalenceDeadlineSleeps(t *testing.T) {
	type outcome struct {
		Result   any
		Cycles   int64
		Activity noc.Activity
		// SelfInitiated, Acks, Retransmits and Abandoned sum the NICs'
		// protocol counters; Drops is the fault injector's.
		SelfInitiated, Acks, Retransmits, Abandoned, Drops uint64
	}
	collect := func(nw *noc.Network, result any) outcome {
		o := outcome{Result: result, Cycles: nw.Engine().Cycle(), Activity: nw.Activity()}
		for id := 0; id < nw.Topology().NumNodes(); id++ {
			n := nw.NIC(topology.NodeID(id))
			o.SelfInitiated += n.SelfInitiatedGathers.Value() + n.SelfInitiatedReduces.Value()
			o.Acks += n.PiggybackAcks.Value() + n.MergeAcks.Value()
			o.Retransmits += n.Retransmits.Value()
			o.Abandoned += n.AbandonedPayloads.Value()
		}
		if inj := nw.FaultInjector(); inj != nil {
			o.Drops = inj.Drops()
		}
		return o
	}
	accumulate := func(scheme traffic.CollectScheme) func(*testing.T, *noc.Network) any {
		return func(t *testing.T, nw *noc.Network) any {
			ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
				Scheme: scheme, Rounds: 3, ComputeLatency: 150,
			})
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := workload.Run(nw, ctl, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			res := ctl.Result(cycles)
			if res.OracleErrors != 0 {
				t.Errorf("%d oracle errors", res.OracleErrors)
			}
			return res
		}
	}
	cases := []struct {
		name   string
		mutate func(*noc.Config)
		run    func(*testing.T, *noc.Network) any
		check  func(*testing.T, outcome)
	}{
		// Algorithm 1's fallback: payloads offered with no initiator in
		// sight, so every NIC sleeps its δ out, retracts and sends its own
		// gather packet (the odd rows: its own accumulate packet).
		{
			name:   "gather-delta-fallback",
			mutate: func(c *noc.Config) { c.EnableINA, c.Delta = true, 120 },
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
				if _, err := nw.RunUntilQuiescent(100_000); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			check: func(t *testing.T, o outcome) {
				if o.SelfInitiated != 56 || o.Acks != 0 {
					t.Errorf("%d self-initiated packets and %d acks, want all 56 payloads to time out", o.SelfInitiated, o.Acks)
				}
			},
		},
		// The same protocol with its initiators: most payloads are picked
		// up, the rest fall back on the scaled δ of their column.
		{name: "gather", run: accumulate(traffic.CollectGather)},
		{
			name:   "ina",
			mutate: func(c *noc.Config) { c.EnableINA = true },
			run:    accumulate(traffic.CollectINA),
		},
		// A lossy fabric: dropped and corrupted packets are sent again when
		// the retransmission deadline their NIC sleeps to comes.
		{
			name: "lossy-retransmit",
			mutate: func(c *noc.Config) {
				c.Faults = &fault.Config{Seed: 5, DropRate: 0.03, CorruptRate: 0.01}
			},
			run: accumulate(traffic.CollectGather),
			check: func(t *testing.T, o outcome) {
				if o.Retransmits == 0 || o.Drops == 0 || o.Abandoned != 0 {
					t.Errorf("%d retransmits, %d drops, %d abandoned: the run exercises no recovery", o.Retransmits, o.Drops, o.Abandoned)
				}
			},
		},
		{
			name:   "allreduce-tree",
			mutate: func(c *noc.Config) { c.EastSinks = false },
			run: func(t *testing.T, nw *noc.Network) any {
				ctl, err := collective.NewDriver(nw, collective.Config{
					Op: collective.AllReduce, Algorithm: collective.AlgTree, Rounds: 2, ComputeLatency: 130,
				})
				if err != nil {
					t.Fatal(err)
				}
				cycles, err := workload.Run(nw, ctl, 10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				res := ctl.Result(cycles)
				if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
					t.Errorf("%d oracle / %d broadcast errors", res.OracleErrors, res.BroadcastErrors)
				}
				return res
			},
		},
		// A sparse trace: the replayer sleeps from one record to the next
		// (two rounds of Conv3's gather collection, 2600 cycles apart).
		{
			name: "trace-replay",
			run: func(t *testing.T, nw *noc.Network) any {
				events := traffic.GenerateLayerTrace(conv3(t), 8, 8, true, 400, nw.Topology().NumNodes())
				for _, e := range traffic.GenerateLayerTrace(conv3(t), 8, 8, true, 3000, nw.Topology().NumNodes()) {
					e.Seq += 1000
					events = append(events, e)
				}
				rp, err := traffic.NewReplayer(nw, events)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rp.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				return rp.EventsInjected
			},
		},
		// An observed fabric: the epoch trigger sleeps from one boundary to
		// the next, so the clock still jumps, an epoch at a time, and every
		// epoch row and trace event is the stepping engine's.
		{
			name: "telemetry-epochs",
			mutate: func(c *noc.Config) {
				c.EnableINA = true
				c.Telemetry = &telemetry.Config{Epoch: 64, TraceSample: 1}
			},
			run: func(t *testing.T, nw *noc.Network) any {
				res := accumulate(traffic.CollectINA)(t, nw)
				rep, csv, trace := harvestAndExport(t, nw)
				if len(rep.EpochIndex) < 8 || len(rep.Events) == 0 {
					t.Errorf("%d epochs and %d events harvested: telemetry was not exercised", len(rep.EpochIndex), len(rep.Events))
				}
				return []any{res, string(csv), string(trace)}
			},
		},
		// A pure broadcast has no leaf to release: the round loop sleeps to
		// the cycle the controller named, the root's compute time.
		{
			name:   "broadcast-root-compute",
			mutate: func(c *noc.Config) { c.EastSinks = false },
			run: func(t *testing.T, nw *noc.Network) any {
				ctl, err := collective.NewDriver(nw, collective.Config{
					Op: collective.Broadcast, Algorithm: collective.AlgTree, Rounds: 3, ComputeLatency: 200,
				})
				if err != nil {
					t.Fatal(err)
				}
				cycles, err := workload.Run(nw, ctl, 10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				res := ctl.Result(cycles)
				if res.BroadcastErrors != 0 {
					t.Errorf("%d broadcast errors", res.BroadcastErrors)
				}
				return res
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(alwaysTick bool, shards int) (outcome, *sim.Engine) {
				cfg := noc.DefaultConfig(8, 8)
				if c.mutate != nil {
					c.mutate(&cfg)
				}
				cfg.Shards = shards
				nw, err := noc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				nw.Engine().SetAlwaysTick(alwaysTick)
				return collect(nw, c.run(t, nw)), nw.Engine()
			}
			naive, naiveEngine := run(true, 0)
			if c.check != nil {
				c.check(t, naive)
			}
			if naiveEngine.Jumps() != 0 || naiveEngine.Skipped() != 0 {
				t.Errorf("the always-tick engine jumped %d times and skipped %d evaluations", naiveEngine.Jumps(), naiveEngine.Skipped())
			}
			for _, shards := range []int{0, 2} {
				tracked, engine := run(false, shards)
				if !reflect.DeepEqual(tracked, naive) {
					t.Errorf("shards=%d diverged from the always-tick engine:\ntracked %+v\nnaive   %+v", shards, tracked, naive)
				}
				if engine.Jumps() == 0 || engine.JumpedCycles() < 100 {
					t.Errorf("shards=%d: %d cycles jumped in %d jumps: the deadlines were polled, not slept to", shards, engine.JumpedCycles(), engine.Jumps())
				}
				if got, want := engine.Evaluated()+engine.Skipped(), naiveEngine.Evaluated(); shards == 0 && got != want {
					t.Errorf("Evaluated()+Skipped() = %d, the always-tick engine evaluated %d", got, want)
				}
			}
		})
	}
}
