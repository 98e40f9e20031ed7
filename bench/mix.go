package main

import (
	"gathernoc/internal/collective"
	"gathernoc/internal/fault"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// mixSize fixes the model-mix workload: batched VGG-16 inferences, a
// mesh-wide tree-reduce job and background uniform traffic sharing one
// lossy, telemetry-enabled fabric.
type mixSize struct {
	mesh             int
	inferences       int
	rounds           int
	collectiveRounds int
	backgroundRate   float64
	backgroundCycles int64
	dropRate         float64
	corruptRate      float64
}

const (
	mixStagger   = 5
	mixMaxCycles = 50_000_000
)

// The timed drivers wrap a phase driver for the traced op. Each embeds
// the concrete driver, so the optional interfaces the scheduler looks for
// (packet and payload sinks, tagging, foreign-payload routing) stay
// visible, and overrides Tick alone.
type timedAccumulation struct {
	*traffic.AccumulationController
	clock *tickClock
}

func (t timedAccumulation) Tick(cycle int64) { t.clock.time(t.AccumulationController.Tick, cycle) }

type timedCollective struct {
	*collective.Driver
	clock *tickClock
}

func (t timedCollective) Tick(cycle int64) { t.clock.time(t.Driver.Tick, cycle) }

// background is open-loop noise on a lossy fabric. Generator packets
// carry no tracked payload, so a dropped one is never sent again and the
// generator's own Drained would never hold; the phase counts as drained
// once it stops injecting. clock is nil in untraced ops.
type background struct {
	*traffic.Generator
	clock *tickClock
}

func (b background) Drained() bool { return b.Injected() }

func (b background) Tick(cycle int64) {
	if b.clock == nil {
		b.Generator.Tick(cycle)
		return
	}
	b.clock.time(b.Generator.Tick, cycle)
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runMix is one op of model-mix: build the fabric with fault injection
// and telemetry on, schedule the jobs, run to completion, then harvest
// and export the telemetry as `nocsim -metrics -trace` does.
func runMix(sz mixSize, seed int64, tr *tracer) *observation {
	o := newObservation()
	cfg := noc.DefaultConfig(sz.mesh, sz.mesh)
	cfg.Faults = &fault.Config{Seed: uint64(seed), DropRate: sz.dropRate, CorruptRate: sz.corruptRate}
	tcfg := telemetry.DefaultConfig()
	cfg.Telemetry = &tcfg

	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	tr.begin("noc.New")
	nw, err := noc.New(cfg)
	tr.end()
	if err != nil {
		o.failf("noc.New: %v", err)
		return o
	}
	defer nw.Close()
	if tr != nil {
		o.times["noc.build_allocs"] = float64(mallocs() - m0)
		o.times["noc.build_s"] = tr.total("noc.New")
	}
	o.counts["noc.builds"] = 1

	tr.begin("workload.New")
	layers, err := workload.ModelLayers("vgg16")
	if err != nil {
		o.failf("model: %v", err)
		return o
	}
	jobs, accums, err := workload.NewInferenceBatch(nw, sz.inferences, mixStagger, workload.PipelineConfig{
		Layers: layers, Scheme: traffic.CollectGather, Rounds: sz.rounds,
	})
	if err != nil {
		o.failf("inference batch: %v", err)
		return o
	}
	// A tree reduce, not the all-reduce: the all-reduce's broadcast leg is
	// one multicast packet, a lost branch of which is never sent again,
	// so on a lossy fabric it wedges every run.
	cjob, cdrivers, err := workload.NewCollectiveJob(nw, "reduce", []collective.Config{{
		Op: collective.Reduce, Algorithm: collective.AlgTree,
		Rounds: sz.collectiveRounds, ComputeLatency: 10,
	}}, false)
	if err != nil {
		o.failf("collective job: %v", err)
		return o
	}
	noise, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: nw.Topology().NumNodes()},
		InjectionRate: sz.backgroundRate,
		PacketFlits:   fabricPacketFlits,
		Measure:       sz.backgroundCycles,
		Seed:          seed,
	})
	if err != nil {
		o.failf("background: %v", err)
		return o
	}
	jobs = append(jobs, cjob, workload.Job{
		Name:   "background",
		Phases: []workload.Phase{{Name: "uniform", Driver: background{Generator: noise}}},
	})

	var clocks []*tickClock
	var schedClock *tickClock
	if tr != nil {
		schedClock = &tickClock{span: "workload.Scheduler.Tick"}
		trafficClock := &tickClock{span: "traffic.Tick", parent: schedClock}
		collClock := &tickClock{span: "collective.Driver.Tick", parent: schedClock}
		clocks = []*tickClock{schedClock, trafficClock, collClock}
		for j := range accums {
			for p, d := range accums[j] {
				jobs[j].Phases[p].Driver = timedAccumulation{d, trafficClock}
			}
		}
		c := len(accums)
		for p, d := range cdrivers {
			jobs[c].Phases[p].Driver = timedCollective{d, collClock}
		}
		jobs[c+1].Phases[0].Driver = background{noise, trafficClock}
	}
	sched, err := workload.New(nw, jobs)
	tr.end()
	if err != nil {
		o.failf("workload.New: %v", err)
		return o
	}
	// A lossy fabric that wedges must say so instead of spinning to the
	// cycle budget; nocsim arms the watchdog the same way.
	wd := nw.Watchdog(0)
	nw.Engine().SetWatchdog(wd)

	var res *workload.Result
	if tr == nil {
		res, err = sched.Run(mixMaxCycles)
	} else {
		eng := nw.Engine()
		eng.AddTicker(&timedTicker{inner: sched, clock: schedClock})
		var cycles int64
		cycles, err = tr.drive(eng, sched.Done, mixMaxCycles, clocks, wd, nil)
		res = sched.Result(cycles)
	}
	if err != nil {
		o.failf("run: %v", err)
		return o
	}

	tr.begin("telemetry.Harvest")
	rep := nw.HarvestTelemetry()
	tr.end()
	var csv, trace countingWriter
	tr.begin("telemetry.WriteMetricsCSV")
	err = rep.WriteMetricsCSV(&csv)
	tr.end()
	if err != nil {
		o.failf("metrics csv: %v", err)
	}
	tr.begin("telemetry.WriteChromeTrace")
	err = rep.WriteChromeTrace(&trace)
	tr.end()
	if err != nil {
		o.failf("chrome trace: %v", err)
	}

	o.simCycles = float64(res.Cycles)
	networkCounts(o, nw)
	inferenceTimes := res.JobTimes()[:sz.inferences]
	o.counts["workload.makespan_cycles"] = float64(res.Cycles)
	o.counts["workload.maxmin_slowdown"] = stats.MaxMinRatio(inferenceTimes)
	o.counts["workload.jobs"] = float64(len(res.Jobs))
	if res.OrphanPackets != 0 || res.OrphanPayloads != 0 {
		o.failf("%d orphan packets, %d orphan payloads", res.OrphanPackets, res.OrphanPayloads)
	}
	oracleErrors := 0
	for _, job := range accums {
		for _, d := range job {
			oracleErrors += d.Snapshot().OracleErrors
		}
	}
	var rounds, roundCycles float64
	var rootFlits uint64
	collectiveErrors := 0
	for _, d := range cdrivers {
		s := d.Snapshot()
		collectiveErrors += s.OracleErrors + s.BroadcastErrors
		// Snapshot leaves the root-port traffic out; read it as
		// collective.Driver.Run does. The port is shared with every other
		// job's traffic to that sink.
		if plan := d.Plan(); plan.RootIsSink {
			rootFlits += nw.Sink(sz.mesh - 1).Ejector().FlitsEjected.Value()
		} else {
			rootFlits += nw.NIC(plan.Root).Ejector().FlitsEjected.Value()
		}
		rounds += float64(s.RoundCycles.N())
		roundCycles += s.RoundCycles.Sum()
	}
	if rounds > 0 {
		o.counts["collective.round_cycles_mean"] = roundCycles / rounds
	}
	o.counts["collective.root_flits"] = float64(rootFlits)
	o.counts["collective.oracle_errors"] = float64(collectiveErrors)
	mixVerdict(o, oracleErrors, collectiveErrors)
	if noise.Delivered() > noise.Sent() {
		o.failf("background delivered %d > sent %d", noise.Delivered(), noise.Sent())
	}
	if inj := nw.FaultInjector(); inj != nil {
		o.counts["fault.flits_dropped"] = float64(inj.Drops())
		o.counts["fault.packets_corrupted"] = float64(inj.Corrupts())
	}
	o.counts["telemetry.epochs"] = float64(len(rep.EpochIndex))
	o.counts["telemetry.events"] = float64(len(rep.Events))
	o.counts["telemetry.dropped_events"] = float64(rep.DroppedEvents)
	o.counts["telemetry.csv_bytes"] = float64(csv.n)

	if tr != nil {
		simTimes(o, tr, nw.Topology().NumNodes(), "workload.Scheduler.Tick")
		o.times["workload.tick_s"] = tr.total("workload.Scheduler.Tick")
		o.times["traffic.tick_s"] = tr.total("traffic.Tick")
		o.times["telemetry.harvest_s"] = tr.total("telemetry.Harvest")
		o.times["telemetry.export_csv_s"] = tr.total("telemetry.WriteMetricsCSV")
		o.times["telemetry.export_trace_s"] = tr.total("telemetry.WriteChromeTrace")
	}
	return o
}

// mixVerdict fails the op when any reduction or broadcast disagreed with
// its software oracle.
func mixVerdict(o *observation, oracleErrors, collectiveErrors int) {
	if oracleErrors != 0 {
		o.failf("%d row-sum oracle errors", oracleErrors)
	}
	if collectiveErrors != 0 {
		o.failf("%d collective oracle or broadcast errors", collectiveErrors)
	}
}
