package gathernoc

import (
	"bytes"
	"fmt"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/fault"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/systolic"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// telemetryRun drives the scheduler workload of the sharded-equivalence
// suite — three concurrent tagged jobs on an 8x8 mesh — with telemetry
// on, and returns the harvested report plus both rendered exports.
func telemetryRun(t *testing.T, shards int) (*telemetry.Report, []byte, []byte) {
	t.Helper()
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	cfg.Shards = shards
	cfg.Telemetry = &telemetry.Config{Epoch: 64, TraceSample: 4}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	jobs := make([]workload.Job, 3)
	for i := range jobs {
		gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
			Pattern:       traffic.UniformRandom{Nodes: 64},
			InjectionRate: 0.02,
			PacketFlits:   2,
			Warmup:        100,
			Measure:       400,
			Seed:          int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = workload.Job{
			Name:   fmt.Sprintf("soak%d", i),
			Phases: []workload.Phase{{Name: "uniform", Driver: gen}},
		}
	}
	s, err := workload.New(nw, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return harvestAndExport(t, nw)
}

// harvestAndExport harvests nw's telemetry and renders both exports.
func harvestAndExport(t *testing.T, nw *noc.Network) (*telemetry.Report, []byte, []byte) {
	t.Helper()
	rep := nw.HarvestTelemetry()
	if rep == nil {
		t.Fatal("telemetry enabled but HarvestTelemetry returned nil")
	}
	var csv, trace bytes.Buffer
	if err := rep.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	return rep, csv.Bytes(), trace.Bytes()
}

// compareTelemetry requires a sharded run's events and exported bytes to
// equal the sequential engine's.
func compareTelemetry(t *testing.T, seqRep, rep *telemetry.Report, seqCSV, csv, seqTrace, trace []byte) {
	t.Helper()
	if rep.DroppedEvents != 0 {
		t.Fatalf("dropped %d events", rep.DroppedEvents)
	}
	if len(rep.Events) != len(seqRep.Events) {
		t.Errorf("event count diverged: sequential %d, sharded %d", len(seqRep.Events), len(rep.Events))
	}
	for i := range rep.Events {
		if i < len(seqRep.Events) && rep.Events[i] != seqRep.Events[i] {
			t.Errorf("event %d diverged:\nsequential %+v\nsharded    %+v", i, seqRep.Events[i], rep.Events[i])
			break
		}
	}
	if !bytes.Equal(csv, seqCSV) {
		t.Error("metrics CSV diverged from the sequential engine")
	}
	if !bytes.Equal(trace, seqTrace) {
		t.Error("Chrome trace JSON diverged from the sequential engine")
	}
}

// TestTelemetryShardInvariance is the observability twin of the sharded
// bit-identity matrix (DESIGN.md §11): the same workload with telemetry
// on must harvest the identical epoch series and — after the canonical
// event sort — the identical trace stream at every shard count, down to
// the exported bytes. Hash-based packet sampling and the per-shard
// single-writer probes are what this pins; it runs under -race in CI so
// a cross-shard probe write fails even when the bytes happen to match.
func TestTelemetryShardInvariance(t *testing.T) {
	seqRep, seqCSV, seqTrace := telemetryRun(t, 0)
	if seqRep.DroppedEvents != 0 {
		t.Fatalf("sequential run dropped %d events; shrink the workload below the probes' event bound, the comparison needs the full stream", seqRep.DroppedEvents)
	}
	if len(seqRep.EpochIndex) == 0 || len(seqRep.Events) == 0 {
		t.Fatalf("sequential run harvested %d epochs, %d events — workload did not exercise telemetry",
			len(seqRep.EpochIndex), len(seqRep.Events))
	}
	for _, shards := range shardMatrix() {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rep, csv, trace := telemetryRun(t, shards)
			compareTelemetry(t, seqRep, rep, seqCSV, csv, seqTrace, trace)
		})
	}
}

// lossyBackground is open-loop noise on a lossy fabric: generator packets
// carry no tracked payload, so a dropped one is never sent again and the
// generator's own Drained would never hold. The phase counts as drained
// once it stops injecting.
type lossyBackground struct{ *traffic.Generator }

func (b lossyBackground) Drained() bool { return b.Injected() }

// telemetryFaultRun is model-mix in miniature: an AlexNet gather pipeline
// (tracked payloads, recovered by retransmission) and background uniform
// traffic on an 8x8 with model-mix's loss rates and telemetry on. Epochs
// are short so that many boundaries fall on a cycle whose commit phase
// drops a flit — the case the per-shard pool gauge exists for.
func telemetryFaultRun(t *testing.T, shards int) (*telemetry.Report, []byte, []byte) {
	t.Helper()
	cfg := noc.DefaultConfig(8, 8)
	cfg.Shards = shards
	cfg.Faults = &fault.Config{Seed: 1, DropRate: 0.002, CorruptRate: 0.0005}
	cfg.Telemetry = &telemetry.Config{Epoch: 16, TraceSample: 4}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	job, drivers, err := workload.NewPipelineJob(nw, "alexnet", workload.PipelineConfig{
		Layers: cnn.AlexNetConvLayers(), Scheme: traffic.CollectGather, Rounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	noise, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Measure:       2000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.New(nw, []workload.Job{job, {
		Name:   "background",
		Phases: []workload.Phase{{Name: "uniform", Driver: lossyBackground{noise}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(5_000_000); err != nil {
		t.Fatalf("run did not complete under faults: %v", err)
	}
	for i, d := range drivers {
		if errs := d.Snapshot().OracleErrors; errs != 0 {
			t.Fatalf("layer %d: %d oracle errors", i, errs)
		}
	}
	if nw.FlitPool().Drops() == 0 {
		t.Fatal("fault schedule dropped nothing; the cell proves nothing")
	}
	return harvestAndExport(t, nw)
}

// TestTelemetryShardInvarianceUnderFaults is the same proof on a lossy
// fabric, where flits are also released in the commit phase
// (link.CommitFlits drops them): every shard snapshots the pool balance
// of its own view after its own commits, so the summed `live` gauge — and
// with it the whole CSV — equals the sequential engine's at every shard
// count, and under -race no shard reads another's counters.
func TestTelemetryShardInvarianceUnderFaults(t *testing.T) {
	seqRep, seqCSV, seqTrace := telemetryFaultRun(t, 0)
	if seqRep.DroppedEvents != 0 {
		t.Fatalf("sequential run dropped %d events; the comparison needs the full stream", seqRep.DroppedEvents)
	}
	if !bytes.Contains(seqCSV, []byte(",pool,0,flitpool,-1,-1,live,")) {
		t.Fatal("metrics CSV carries no flit-pool gauge")
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rep, csv, trace := telemetryFaultRun(t, shards)
			compareTelemetry(t, seqRep, rep, seqCSV, csv, seqTrace, trace)
		})
	}
}

// TestTelemetryOffIsIdentical pins the zero-cost-off contract: a network
// with no Telemetry config and one with a nil-equivalent disabled config
// produce the same schedule as each other (the golden and equivalence
// suites already pin the off-schedule itself; here the point is that the
// disabled config wires no probes at all).
func TestTelemetryOffIsIdentical(t *testing.T) {
	run := func(tcfg *telemetry.Config) noc.Activity {
		cfg := noc.DefaultConfig(8, 8)
		cfg.EastSinks = false
		cfg.Telemetry = tcfg
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
			Measure:       400,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if rep := nw.HarvestTelemetry(); rep != nil && tcfg == nil {
			t.Fatal("nil telemetry config produced a report")
		}
		return nw.Activity()
	}
	off := run(nil)
	disabled := run(&telemetry.Config{}) // zero value: Enabled() == false
	if off != disabled {
		t.Errorf("disabled-config schedule diverged:\nnil      %+v\ndisabled %+v", off, disabled)
	}
	on := run(&telemetry.Config{Epoch: 64, TraceSample: 8})
	if off != on {
		t.Errorf("telemetry-on schedule diverged (must be purely observational):\noff %+v\non  %+v", off, on)
	}
}

// TestStationEventsMatchCounters traces every packet of an 8x8 INA run, of
// a gather layer, and of a gather and an INA accumulation phase sharing
// the fabric, and reconciles the station events with the router counters:
// one merge event per ReduceMerges count and one upload event per
// GatherUploads count, each naming the operand's or payload's source, and
// one NIC ack (MergeAcks, PiggybackAcks) per merge and upload. A router's
// stations are fed only by its own NIC, so that source is the router's own
// node (Aux == Loc). Every run must then drain. In the shared run both
// stations of a router hold entries at once, so a take-up served from the
// other kind's station or an ack filed under the other kind's wait list
// shows here.
func TestStationEventsMatchCounters(t *testing.T) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	accumulation := func(t *testing.T, nw *noc.Network, scheme traffic.CollectScheme) *traffic.AccumulationController {
		ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
			Scheme: scheme, Rounds: 4, ComputeLatency: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	exact := func(t *testing.T, ctls ...*traffic.AccumulationController) {
		for _, ctl := range ctls {
			if e := ctl.Snapshot().OracleErrors; e != 0 {
				t.Errorf("%s: %d oracle errors", ctl.Snapshot().Scheme, e)
			}
		}
	}
	for _, c := range []struct {
		name string
		ina  bool
		run  func(*testing.T, *noc.Network)
	}{
		{"ina", true, func(t *testing.T, nw *noc.Network) {
			ctl := accumulation(t, nw, traffic.CollectINA)
			if _, err := workload.Run(nw, ctl, 10_000_000); err != nil {
				t.Fatal(err)
			}
			exact(t, ctl)
		}},
		{"gather", false, func(t *testing.T, nw *noc.Network) {
			ctl, err := systolic.NewController(nw, systolic.Config{
				Layer: layer, Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := workload.Run(nw, ctl, 10_000_000); err != nil {
				t.Fatal(err)
			}
		}},
		// The INA phase is admitted once the gather phase has injected
		// (an overlap edge), so its operands reach stations where gather
		// payloads still wait for their packet.
		{"mixed", true, func(t *testing.T, nw *noc.Network) {
			g, r := accumulation(t, nw, traffic.CollectGather), accumulation(t, nw, traffic.CollectINA)
			s, err := workload.New(nw, []workload.Job{{Name: "mixed", Phases: []workload.Phase{
				{Name: "gather", Driver: g},
				{Name: "ina", Driver: r, After: []workload.Dep{{Phase: 0, Overlap: true}}},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			both := 0
			done := func() bool {
				for id := 0; id < nw.Topology().NumNodes(); id++ {
					rt := nw.Router(topology.NodeID(id))
					if rt.Backlog(reduce.GatherStation) > 0 && rt.Backlog(reduce.ReduceStation) > 0 {
						both++
						break
					}
				}
				return s.Done()
			}
			if _, err := nw.Engine().RunWith(s, done, 10_000_000); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d cycles with both stations of a router holding entries", both)
			if both == 0 {
				t.Error("no router held entries in both stations at once")
			}
			if a := nw.Activity(); a.GatherUploads == 0 || a.ReduceMerges == 0 {
				t.Errorf("%d uploads and %d merges, want both > 0", a.GatherUploads, a.ReduceMerges)
			}
			exact(t, g, r)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := noc.DefaultConfig(8, 8)
			cfg.EnableINA = c.ina
			cfg.Telemetry = &telemetry.Config{TraceSample: 1}
			nw, err := noc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			c.run(t, nw)
			// Every wait is acked or fell back: one whose ack went astray
			// would keep its NIC pending.
			if _, err := nw.RunUntilQuiescent(100_000); err != nil {
				t.Fatalf("the fabric does not drain: %v", err)
			}
			rep := nw.HarvestTelemetry()
			if rep.DroppedEvents != 0 {
				t.Fatalf("%d events dropped", rep.DroppedEvents)
			}
			var merges, uploads uint64
			for _, e := range rep.Events {
				switch e.Kind {
				case telemetry.EvReduceMerge:
					merges++
				case telemetry.EvGatherUpload:
					uploads++
				default:
					continue
				}
				if e.Aux != int64(e.Loc) {
					t.Errorf("%s event at router %d names source %d", e.Kind, e.Loc, e.Aux)
				}
			}
			a, acks := nw.Activity(), nw.NICTotals()
			t.Logf("traced %d merges and %d uploads", merges, uploads)
			if merges != a.ReduceMerges || uploads != a.GatherUploads {
				t.Errorf("traced %d merges and %d uploads, counted %d and %d", merges, uploads, a.ReduceMerges, a.GatherUploads)
			}
			if acks.MergeAcks != a.ReduceMerges || acks.PiggybackAcks != a.GatherUploads {
				t.Errorf("NICs acked %d merges and %d uploads, routers counted %d and %d",
					acks.MergeAcks, acks.PiggybackAcks, a.ReduceMerges, a.GatherUploads)
			}
			if merges+uploads == 0 {
				t.Error("the run merged and uploaded nothing")
			}
		})
	}
}
