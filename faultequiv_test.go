package gathernoc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/fault"
	"gathernoc/internal/noc"
	"gathernoc/internal/sim"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// faultMatrixConfig is matrixConfig's twin for the fault suite: one
// (topology, routing) cell at the Table I defaults with a deterministic
// transient-fault schedule layered on.
func faultMatrixConfig(topo, routing string, rows, cols int) noc.Config {
	cfg := noc.DefaultConfig(rows, cols)
	cfg.Topology = topo
	cfg.Routing = routing
	if topo == "torus" {
		cfg.EastSinks = false
	}
	cfg.Faults = &fault.Config{
		Seed:        0xF00D,
		DropRate:    0.05,
		CorruptRate: 0.02,
	}
	return cfg
}

// TestFaultMatrixConservation is the recovery proof: every topology ×
// routing × collection-scheme cell runs an accumulation workload under
// transient link drops and corruption, and must still deliver 100% of the
// payloads (every round's row sums verify bit-exactly against the
// reduce.Oracle — a single lost or duplicated operand fails the ops
// count) — with the recovery schedule itself bit-identical at every shard
// count.
func TestFaultMatrixConservation(t *testing.T) {
	schemes := []traffic.CollectScheme{traffic.CollectUnicast, traffic.CollectGather, traffic.CollectINA}
	shardCounts := []int{0, 1, 2, 4}
	for _, topoName := range topology.TopologyNames() {
		for _, routingName := range topology.RoutingNames() {
			for _, scheme := range schemes {
				name := fmt.Sprintf("%s/%s/%s", topoName, routingName, scheme)
				t.Run(name, func(t *testing.T) {
					type outcome struct {
						cycles      int64
						activity    noc.Activity
						drops       uint64
						corrupts    uint64
						retransmits uint64
						abandoned   uint64
					}
					run := func(shards int) outcome {
						t.Helper()
						cfg := faultMatrixConfig(topoName, routingName, 4, 4)
						cfg.Shards = shards
						if scheme == traffic.CollectINA {
							cfg.EnableINA = true
						}
						nw, err := noc.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer nw.Close()
						ctrl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
							Scheme: scheme, Rounds: 3, ComputeLatency: 20,
						})
						if err != nil {
							t.Fatal(err)
						}
						cycles, err := workload.Run(nw, ctrl, 2_000_000)
						if err != nil {
							t.Fatalf("run did not complete under faults: %v", err)
						}
						res := ctrl.Result(cycles)
						if res.OracleErrors != 0 {
							t.Fatalf("%d oracle errors: payloads lost or duplicated", res.OracleErrors)
						}
						out := outcome{
							cycles:   res.Cycles,
							activity: res.Activity,
							drops:    nw.FaultInjector().Drops(),
							corrupts: nw.FaultInjector().Corrupts(),
						}
						for id := 0; id < nw.Topology().NumNodes(); id++ {
							n := nw.NIC(topology.NodeID(id))
							out.retransmits += n.Retransmits.Value()
							out.abandoned += n.AbandonedPayloads.Value()
						}
						if out.abandoned != 0 {
							t.Fatalf("%d payloads abandoned under purely transient faults", out.abandoned)
						}
						return out
					}
					seq := run(0)
					if seq.drops == 0 && seq.corrupts == 0 {
						t.Fatalf("fault schedule injected nothing; the cell proves nothing")
					}
					if seq.drops > 0 && seq.retransmits == 0 {
						t.Fatalf("%d flits dropped but no retransmissions fired", seq.drops)
					}
					for _, shards := range shardCounts[1:] {
						got := run(shards)
						if got != seq {
							t.Errorf("shards=%d diverged from sequential:\nsequential %+v\nsharded    %+v", shards, seq, got)
						}
					}
				})
			}
		}
	}
}

// TestFaultRecoveryEngineEquivalence pins the fault path against the §2
// sleep/wake machinery: with transient faults on, the adaptive engine
// (credit flushers waking on owed credits, NICs held awake by unconfirmed
// payloads) must reproduce the naive always-tick schedule bit for bit.
func TestFaultRecoveryEngineEquivalence(t *testing.T) {
	run := func(alwaysTick bool) (*traffic.AccumulationResult, noc.Activity) {
		t.Helper()
		cfg := noc.DefaultConfig(6, 6)
		cfg.Faults = &fault.Config{Seed: 21, DropRate: 0.05, CorruptRate: 0.02}
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		nw.Engine().SetAlwaysTick(alwaysTick)
		ctrl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
			Scheme: traffic.CollectGather, Rounds: 3, ComputeLatency: 15,
		})
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := workload.Run(nw, ctrl, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		res := ctrl.Result(cycles)
		return res, nw.Activity()
	}
	naiveRes, naiveAct := run(true)
	adaptiveRes, adaptiveAct := run(false)
	if naiveAct != adaptiveAct {
		t.Errorf("activity diverged:\nnaive    %+v\nadaptive %+v", naiveAct, adaptiveAct)
	}
	if naiveRes.Cycles != adaptiveRes.Cycles || naiveRes.OracleErrors != adaptiveRes.OracleErrors {
		t.Errorf("naive cycles=%d errs=%d, adaptive cycles=%d errs=%d",
			naiveRes.Cycles, naiveRes.OracleErrors, adaptiveRes.Cycles, adaptiveRes.OracleErrors)
	}
	if naiveRes.OracleErrors != 0 {
		t.Errorf("%d oracle errors", naiveRes.OracleErrors)
	}
}

// TestAlexNetPipelineUnderFaults is the acceptance run: a seeded AlexNet
// convolution pipeline (INA collection, the paper's headline mode)
// completes under transient drops and corruption with zero lost payloads,
// and the whole recovery — retransmissions included — is identical at
// shard counts {1, 2, 4}.
func TestAlexNetPipelineUnderFaults(t *testing.T) {
	type outcome struct {
		cycles      int64
		activity    noc.Activity
		drops       uint64
		retransmits uint64
	}
	run := func(shards int) outcome {
		t.Helper()
		cfg := noc.DefaultConfig(8, 8)
		cfg.EnableINA = true
		cfg.Shards = shards
		cfg.Faults = &fault.Config{Seed: 0xA1E7, DropRate: 0.02, CorruptRate: 0.01}
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		job, drivers, err := workload.NewPipelineJob(nw, "alexnet", workload.PipelineConfig{
			Layers: cnn.AlexNetConvLayers(),
			Scheme: traffic.CollectINA,
			Rounds: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := workload.New(nw, []workload.Job{job})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(5_000_000)
		if err != nil {
			t.Fatalf("pipeline did not complete under faults: %v", err)
		}
		for i, drv := range drivers {
			if errs := drv.Snapshot().OracleErrors; errs != 0 {
				t.Fatalf("layer %d: %d oracle errors", i, errs)
			}
		}
		out := outcome{
			cycles:   res.Cycles,
			activity: nw.Activity(),
			drops:    nw.FaultInjector().Drops(),
		}
		for id := 0; id < nw.Topology().NumNodes(); id++ {
			out.retransmits += nw.NIC(topology.NodeID(id)).Retransmits.Value()
		}
		return out
	}
	seq := run(0)
	if seq.drops == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if got := run(shards); got != seq {
				t.Errorf("diverged from sequential:\nsequential %+v\nsharded    %+v", seq, got)
			}
		})
	}
}

// TestWatchdogConvertsPartitionToDiagnostic seeds a permanent router
// outage that makes a workload unfinishable and requires the stall
// watchdog to surface a structured *sim.StallError — bounded retries gone
// quiet, diagnostic attached — instead of the run spinning to its cycle
// cap.
func TestWatchdogConvertsPartitionToDiagnostic(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	cfg.Faults = &fault.Config{
		Seed:         3,
		Routers:      []fault.RouterOutage{{Node: 5, Window: fault.Window{From: 0}}},
		RetryTimeout: 64,
		MaxRetries:   2,
	}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Engine().SetWatchdog(nw.Watchdog(0))
	ctrl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
		Scheme: traffic.CollectUnicast, Rounds: 1, ComputeLatency: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = workload.Run(nw, ctrl, 50_000_000)
	if err == nil {
		t.Fatal("run completed despite the partitioned node")
	}
	if errors.Is(err, sim.ErrMaxCyclesExceeded) {
		t.Fatalf("watchdog never fired; run burned its whole cycle budget: %v", err)
	}
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("want sim.ErrStalled, got %v", err)
	}
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *sim.StallError, got %T", err)
	}
	if stall.Diagnostic == "" {
		t.Error("stall diagnostic empty")
	}
	if !strings.Contains(stall.Diagnostic, "fault totals") {
		t.Errorf("diagnostic missing fault totals:\n%s", stall.Diagnostic)
	}
	var abandoned uint64
	for id := 0; id < nw.Topology().NumNodes(); id++ {
		abandoned += nw.NIC(topology.NodeID(id)).AbandonedPayloads.Value()
	}
	if abandoned == 0 {
		t.Error("no payload was abandoned; the stall should follow bounded retries going quiet")
	}
}

// TestShardedFlitPoolLeakFreedomWithFaults extends the pool ownership
// check to a lossy fabric: flits destroyed mid-flight by the injector are
// released into the dropping link's shard view and accounted in the
// pool's Drops counter, so a drained network still holds zero live flits
// and packet conservation closes exactly — every generator packet either
// delivered or died whole on a link (payload-less generator packets are
// not retransmitted; loss is theirs to keep).
func TestShardedFlitPoolLeakFreedomWithFaults(t *testing.T) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	cfg.Shards = 4
	cfg.DebugFlitPool = true
	cfg.Faults = &fault.Config{Seed: 5, DropRate: 0.1}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Warmup:        100,
		Measure:       900,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if live := nw.FlitPool().Live(); live != 0 {
		t.Fatalf("drained lossy network holds %d leaked flits", live)
	}
	drops := nw.FlitPool().Drops()
	if drops == 0 {
		t.Fatal("no flit was dropped — the fault schedule did nothing")
	}
	if inj := nw.FaultInjector().Drops(); inj != drops {
		t.Errorf("injector counted %d dropped flits, pool released %d", inj, drops)
	}
	if drops%2 != 0 {
		t.Errorf("%d dropped flits is odd; 2-flit packets must die whole", drops)
	}
	lostPackets := drops / 2
	if gen.Sent() != gen.Delivered()+lostPackets {
		t.Errorf("conservation broken: sent %d, delivered %d, lost %d",
			gen.Sent(), gen.Delivered(), lostPackets)
	}
}
