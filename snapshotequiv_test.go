package gathernoc

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/systolic"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
)

// snapRunConfig is the shared workload for the snapshot equivalence
// suite: the same seeded uniform-random load the engine equivalence
// tests replay, with the flit-pool leak checker armed.
func snapRunConfig(shards int) (noc.Config, traffic.GeneratorConfig) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	cfg.Shards = shards
	cfg.DebugFlitPool = true
	gcfg := traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Warmup:        200,
		Measure:       1800,
		Seed:          7,
	}
	return cfg, gcfg
}

// runSnapWorkload builds a network + generator pair, steps the engine to
// pauseAt cycles (0 = don't pause), and returns the live pieces so the
// caller can snapshot, fork, or run to completion.
func buildSnapWorkload(t *testing.T, cfg noc.Config, gcfg traffic.GeneratorConfig) (*noc.Network, *traffic.Generator) {
	t.Helper()
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewGenerator(nw, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Engine().AddTicker(gen)
	return nw, gen
}

// finishSnapWorkload drives the pair to completion and returns the
// result, asserting the flit pool drained to zero.
func finishSnapWorkload(t *testing.T, nw *noc.Network, gen *traffic.Generator) *traffic.GeneratorResult {
	t.Helper()
	done := func() bool { return gen.Injected() && nw.Quiescent() }
	cycles, err := nw.Engine().RunUntil(done, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if live := nw.FlitPool().Live(); live != 0 {
		t.Errorf("flit pool leaked %d flits", live)
	}
	return gen.Result(cycles)
}

// generatorState encodes gen's progress in absolute mode.
func generatorState(gen *traffic.Generator) []byte {
	var e flit.Encoder
	e.ResetAbsolute(nil)
	gen.AppendState(&e)
	return e.Bytes()
}

// loadGenerator loads progress generatorState encoded onto a fresh gen.
func loadGenerator(t *testing.T, gen *traffic.Generator, state []byte) {
	t.Helper()
	var d flit.Decoder
	d.Reset(state, 0, 0)
	if err := gen.LoadState(&d); err != nil {
		t.Fatal(err)
	}
}

func sameGeneratorResult(t *testing.T, label string, a, b *traffic.GeneratorResult) {
	t.Helper()
	if a.Injected != b.Injected || a.Received != b.Received || a.Cycles != b.Cycles {
		t.Errorf("%s: accounting diverged: inj=%d/%d recv=%d/%d cyc=%d/%d",
			label, a.Injected, b.Injected, a.Received, b.Received, a.Cycles, b.Cycles)
	}
	if !sameSample(&a.Latency, &b.Latency) {
		t.Errorf("%s: latency sample diverged: %v vs %v", label, &a.Latency, &b.Latency)
	}
	if !sameSample(&a.QueueLatency, &b.QueueLatency) {
		t.Errorf("%s: queue-latency sample diverged", label)
	}
	if !sameSample(&a.NetworkLatency, &b.NetworkLatency) {
		t.Errorf("%s: network-latency sample diverged", label)
	}
	if !sameSample(&a.Hops, &b.Hops) {
		t.Errorf("%s: hops sample diverged", label)
	}
}

// TestSnapshotResumeBitIdentical checkpoints a run mid-flight through
// the full serialize/deserialize path, resumes it on a freshly built
// network, and requires the resumed run's results — packet accounting,
// every latency sample, and the network activity counters — to be

// restoredCopy forks a network mid-run the way a warm start does: a new
// network built from cfg, with snap restored onto it in memory.
func restoredCopy(t *testing.T, cfg noc.Config, snap *noc.Snapshot) *noc.Network {
	t.Helper()
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Restore(snap); err != nil {
		nw.Close()
		t.Fatal(err)
	}
	return nw
}

// bit-identical to an uninterrupted run at every shard count.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg, gcfg := snapRunConfig(shards)

			// Reference: uninterrupted run.
			refNW, refGen := buildSnapWorkload(t, cfg, gcfg)
			defer refNW.Close()
			refRes := finishSnapWorkload(t, refNW, refGen)
			refAct := refNW.Activity()

			// Interrupted run: stop mid-measurement, checkpoint, discard.
			nw1, gen1 := buildSnapWorkload(t, cfg, gcfg)
			nw1.Engine().RunUntil(never, 600)
			snap, err := nw1.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			gstate := generatorState(gen1)
			data, err := noc.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			nw1.Close()

			// Resume on a fresh network from the serialized bytes.
			decoded, err := noc.DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			nw2, gen2 := buildSnapWorkload(t, cfg, gcfg)
			defer nw2.Close()
			if err := nw2.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			loadGenerator(t, gen2, gstate)
			if got := nw2.Engine().Cycle(); got != 600 {
				t.Fatalf("restored engine at cycle %d, want 600", got)
			}
			res := finishSnapWorkload(t, nw2, gen2)

			sameGeneratorResult(t, "resume", refRes, res)
			if act := nw2.Activity(); act != refAct {
				t.Errorf("activity diverged:\nref     %+v\nresumed %+v", refAct, act)
			}
		})
	}
}

// TestSnapshotCrossShardRestore captures on a sequential network and
// resumes on a 4-shard one: Shards is excluded from the canonical config
// hash because schedules are bit-identical at every shard count, and the
// snapshot layer must honor that equivalence end to end.
func TestSnapshotCrossShardRestore(t *testing.T) {
	seqCfg, gcfg := snapRunConfig(0)
	refNW, refGen := buildSnapWorkload(t, seqCfg, gcfg)
	defer refNW.Close()
	refRes := finishSnapWorkload(t, refNW, refGen)

	nw1, gen1 := buildSnapWorkload(t, seqCfg, gcfg)
	nw1.Engine().RunUntil(never, 600)
	snap, err := nw1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gstate := generatorState(gen1)
	nw1.Close()

	shardCfg, _ := snapRunConfig(4)
	nw2, gen2 := buildSnapWorkload(t, shardCfg, gcfg)
	defer nw2.Close()
	if err := nw2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	loadGenerator(t, gen2, gstate)
	res := finishSnapWorkload(t, nw2, gen2)
	sameGeneratorResult(t, "cross-shard", refRes, res)
}

// TestForkDivergenceIndependence forks a network mid-run and drives the
// original and the fork to completion independently. Both must match the
// uninterrupted reference bit for bit, and both pools must drain to zero
// — any shared mutable state (an aliased destination set, a shared
// sample count table, a flit owned by the wrong pool) breaks one or the
// other.
func TestForkDivergenceIndependence(t *testing.T) {
	cfg, gcfg := snapRunConfig(0)

	refNW, refGen := buildSnapWorkload(t, cfg, gcfg)
	defer refNW.Close()
	refRes := finishSnapWorkload(t, refNW, refGen)

	nw1, gen1 := buildSnapWorkload(t, cfg, gcfg)
	defer nw1.Close()
	nw1.Engine().RunUntil(never, 600)
	gstate := generatorState(gen1)
	snap, err := nw1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork := restoredCopy(t, nw1.Config(), snap)
	defer fork.Close()

	// Original continues first, fork after — if the fork aliased any of
	// the original's state, the original's extra 1000+ cycles of mutation
	// corrupt the fork's replay.
	res1 := finishSnapWorkload(t, nw1, gen1)

	genF, err := traffic.NewGenerator(fork, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	fork.Engine().AddTicker(genF)
	loadGenerator(t, genF, gstate)
	resF := finishSnapWorkload(t, fork, genF)

	sameGeneratorResult(t, "original", refRes, res1)
	sameGeneratorResult(t, "fork", refRes, resF)
	if a, b := nw1.Activity(), fork.Activity(); a != b {
		t.Errorf("activity diverged between original and fork:\noriginal %+v\nfork     %+v", a, b)
	}
}

// TestSnapshotRejectsMismatchedConfig proves the config-hash guard: a
// snapshot must not restore onto a semantically different network.
func TestSnapshotRejectsMismatchedConfig(t *testing.T) {
	cfg, _ := snapRunConfig(0)
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	snap, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Router.BufferDepth++
	nw2, err := noc.New(other)
	if err != nil {
		t.Fatal(err)
	}
	defer nw2.Close()
	if err := nw2.Restore(snap); err == nil {
		t.Fatal("restore onto a different config succeeded, want hash-mismatch error")
	}
}

// TestSnapshotRejectsOtherVersion proves the version guard: an envelope of
// another snapshot version (v2 was JSON, v3 the absolute encoding) is
// refused by name at both entries, before anything is restored.
func TestSnapshotRejectsOtherVersion(t *testing.T) {
	const v2 = "gathernoc/noc.Snapshot/v2"
	cfg, gcfg := snapRunConfig(0)
	nw, _ := buildSnapWorkload(t, cfg, gcfg)
	defer nw.Close()
	nw.Engine().RunUntil(never, 300) // mid-flight: a partial restore would show
	snap, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noc.DecodeSnapshot([]byte(`{"Version":"` + v2 + `"}`)); err == nil || !strings.Contains(err.Error(), "snapshot version") {
		t.Errorf("DecodeSnapshot of a v2 envelope: %v, want the version error", err)
	}
	fresh, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	snap.Version = v2
	if err := fresh.Restore(snap); err == nil || !strings.Contains(err.Error(), "snapshot version") {
		t.Errorf("Restore of a v2 snapshot: %v, want the version error", err)
	}
	if fresh.Engine().Cycle() != 0 || !fresh.Quiescent() {
		t.Error("a refused restore changed the network")
	}
}

// TestSnapshotResumeWithFaults is the reliability variant of the resume
// contract: with seeded fault injection active, the doomed-packet sets
// and drop/corrupt counters ride the snapshot, so a resumed run replays
// the exact same loss schedule and retransmissions as the uninterrupted
// one.
func TestSnapshotResumeWithFaults(t *testing.T) {
	cfg, gcfg := snapRunConfig(0)
	cfg.Faults = &fault.Config{Seed: 21, DropRate: 0.05, CorruptRate: 0.02}

	refNW, refGen := buildSnapWorkload(t, cfg, gcfg)
	defer refNW.Close()
	refRes := finishSnapWorkload(t, refNW, refGen)
	refAct := refNW.Activity()

	nw1, gen1 := buildSnapWorkload(t, cfg, gcfg)
	nw1.Engine().RunUntil(never, 600)
	snap, err := nw1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gstate := generatorState(gen1)
	data, err := noc.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	nw1.Close()

	decoded, err := noc.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	nw2, gen2 := buildSnapWorkload(t, cfg, gcfg)
	defer nw2.Close()
	if err := nw2.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	loadGenerator(t, gen2, gstate)
	res := finishSnapWorkload(t, nw2, gen2)

	sameGeneratorResult(t, "faulty resume", refRes, res)
	if act := nw2.Activity(); act != refAct {
		t.Errorf("activity diverged under faults:\nref     %+v\nresumed %+v", refAct, act)
	}
}

// TestSnapshotRoundTripMidCollection freezes a gather (and an INA)
// collection mid-round — station entries queued, VC-held entry pointers
// live — restores onto a fresh network and requires the re-captured
// snapshot to serialize byte-identically: capture and restore are exact
// inverses even for the protocol state the synthetic workloads never
// exercise.
func TestSnapshotRoundTripMidCollection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme traffic.CollectScheme
	}{
		{"gather", traffic.CollectGather},
		{"ina", traffic.CollectINA},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := noc.DefaultConfig(4, 4)
			cfg.DebugFlitPool = true
			if tc.scheme == traffic.CollectINA {
				cfg.EnableINA = true
			}
			nw, err := noc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			ctrl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
				Scheme: tc.scheme, Rounds: 2, ComputeLatency: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			nw.OnReceive(ctrl.OnPacket)
			ctrl.Start(0)
			eng := nw.Engine()
			eng.AddTicker(ctrl)

			// Step cycle by cycle until a station holds an in-flight entry.
			var snap *noc.Snapshot
			for !ctrl.Done() && eng.Cycle() < 10_000 {
				eng.RunUntil(never, 1)
				s, err := nw.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				entries := 0
				for id := 0; id < nw.Topology().NumNodes(); id++ {
					r := nw.Router(topology.NodeID(id))
					entries += r.Backlog(reduce.GatherStation) + r.Backlog(reduce.ReduceStation)
				}
				if entries > 0 {
					snap = s
					break
				}
			}
			if snap == nil {
				t.Fatal("no in-flight station entries observed; workload too small")
			}
			data1, err := noc.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}

			nw2, err := noc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer nw2.Close()
			if err := nw2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			snap2, err := nw2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data2, err := noc.EncodeSnapshot(snap2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data1, data2) {
				t.Errorf("restore is not an exact inverse of capture: %d bytes re-captured as %d", len(data1), len(data2))
			}
		})
	}
}

// TestSnapshotMidComputeWhileAJumpIsPending takes a snapshot (and a fork) of
// a systolic run in the middle of its first round's compute time: the round
// loop is asleep with its timer armed for the cycle the results are ready
// in, nothing else is awake, and Run(n) has stopped the clock short of where
// it was jumping to. Restore wakes everything and drops the timers; the
// controller attached to the restored fabric arms its own on its first
// evaluation and the engine jumps again. Every continuation — the original,
// the restored copy at each shard count, the fork — must finish with the
// uninterrupted run's result, activity and clock.
func TestSnapshotMidComputeWhileAJumpIsPending(t *testing.T) {
	const pauseAt = 1000 // Conv3 computes for 2309 cycles a round
	scfg := systolic.Config{Layer: conv3(t), Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 2}
	type outcome struct {
		Result   *systolic.Result
		Activity noc.Activity
		Cycle    int64
	}
	// attach wires and registers a controller, as workload.Run does, but
	// with its first round opened at cycle 0 whatever the clock reads: a
	// restored network's clock stands in that round's compute time. finish
	// runs it out.
	attach := func(nw *noc.Network) *systolic.Controller {
		t.Helper()
		ctl, err := systolic.NewController(nw, scfg)
		if err != nil {
			t.Fatal(err)
		}
		nw.OnReceive(ctl.OnPacket)
		ctl.Start(0)
		ctl.SetWake(nw.Engine().AddTicker(ctl))
		return ctl
	}
	finish := func(nw *noc.Network, ctl *systolic.Controller) outcome {
		t.Helper()
		if _, err := nw.Engine().RunUntil(ctl.Done, 1_000_000); err != nil {
			t.Fatal(err)
		}
		if live := nw.FlitPool().Live(); live != 0 {
			t.Errorf("flit pool leaked %d flits", live)
		}
		return outcome{ctl.Result(), nw.Activity(), nw.Engine().Cycle()}
	}
	build := func(shards int) *noc.Network {
		t.Helper()
		cfg := noc.DefaultConfig(8, 8)
		cfg.Shards, cfg.DebugFlitPool = shards, true
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nw.Close)
		return nw
	}

	ref := build(0)
	want := finish(ref, attach(ref))
	if want.Result.PayloadErrors != 0 || ref.Engine().Jumps() == 0 {
		t.Fatalf("reference run: %d payload errors, %d jumps", want.Result.PayloadErrors, ref.Engine().Jumps())
	}

	orig := build(0)
	ctl := attach(orig)
	orig.Engine().RunUntil(never, pauseAt)
	if orig.Engine().Cycle() != pauseAt || orig.Engine().Jumps() != 1 || ctl.Done() {
		t.Fatalf("paused at cycle %d after %d jumps", orig.Engine().Cycle(), orig.Engine().Jumps())
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := noc.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	fork := restoredCopy(t, orig.Config(), snap)
	defer fork.Close()

	check := func(label string, got outcome) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverged from the uninterrupted run:\n got %+v\nwant %+v", label, got, want)
		}
	}
	check("the snapshotted run itself", finish(orig, ctl))
	check("the fork", finish(fork, attach(fork)))
	for _, shards := range []int{0, 2} {
		decoded, err := noc.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		nw := build(shards)
		if err := nw.Restore(decoded); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("the restored run on %d shards", shards), finish(nw, attach(nw)))
		if nw.Engine().Jumps() == 0 {
			t.Errorf("the restored run on %d shards never jumped", shards)
		}
	}
}
