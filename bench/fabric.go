package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gathernoc/internal/analytic"
	"gathernoc/internal/noc"
	"gathernoc/internal/power"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
)

// observation is what one op reports about itself.
type observation struct {
	// simCycles and energyPJ are the two simulated end-to-end metrics.
	simCycles float64
	energyPJ  float64
	// counts holds exact, repeatable numbers under their per-layer metric
	// names: simulated statistics and host-side counts. Two ops of one
	// workload must agree on every key both report.
	counts map[string]float64
	// times holds host-time per-layer metrics; only traced ops fill it.
	times map[string]float64
	// fails lists every correctness check the op did not pass.
	fails []string
}

func newObservation() *observation {
	return &observation{counts: map[string]float64{}, times: map[string]float64{}}
}

func (o *observation) failf(format string, args ...any) {
	o.fails = append(o.fails, fmt.Sprintf(format, args...))
}

// engineKeys prefixes the counts that depend on how the engine ran the
// simulation (sequential or sharded) and not on what was simulated.
var engineKeys = []string{"sim.", "flit.pool_misses"}

func engineKey(k string) bool {
	for _, p := range engineKeys {
		if strings.HasPrefix(k, p) {
			return true
		}
	}
	return false
}

// differences lists the count keys on which two observations of the same
// simulation disagree. With sameEngine false the keys under engineKeys
// are left out, as when a sharded run is held against a sequential one.
func differences(a, b *observation, sameEngine bool) []string {
	var out []string
	if a.simCycles != b.simCycles {
		out = append(out, fmt.Sprintf("sim_cycles %v != %v", a.simCycles, b.simCycles))
	}
	if a.energyPJ != b.energyPJ {
		out = append(out, fmt.Sprintf("noc_energy_pj %v != %v", a.energyPJ, b.energyPJ))
	}
	for k, va := range a.counts {
		vb, ok := b.counts[k]
		if !ok || va == vb {
			continue
		}
		if sameEngine || !engineKey(k) {
			out = append(out, fmt.Sprintf("%s %v != %v", k, va, vb))
		}
	}
	return out
}

// fabricSize fixes one synthetic-traffic operating point. Sizes are
// constants: an op is never sized from a timing taken at run time.
type fabricSize struct {
	mesh    int
	rate    float64
	measure int64
	// snapshotAt, when positive, makes the traced op checkpoint the
	// network once at that cycle (Snapshot, Encode, Decode, Restore onto a
	// fresh network) to price the checkpoint layer.
	snapshotAt int64
}

const (
	fabricWarmup      = 100
	fabricPacketFlits = 2
	fabricMaxCycles   = 50_000_000
)

// eventsOf converts the network's activity counts to the power model's
// input, as core.RunLayer does.
func eventsOf(a noc.Activity) power.Events {
	return power.Events{
		BufferWrites:   a.BufferWrites,
		BufferReads:    a.BufferReads,
		RCComputations: a.RCComputations,
		VAAllocations:  a.VAAllocations,
		SAGrants:       a.SAGrants,
		Crossings:      a.Crossings,
		LinkFlits:      a.LinkFlits,
		GatherUploads:  a.GatherUploads,
		ReduceMerges:   a.ReduceMerges,
	}
}

// activityCounts files the router, link and NIC event counts.
func activityCounts(o *observation, e power.Events, packets, flits uint64) {
	o.counts["router.buffer_writes"] = float64(e.BufferWrites)
	o.counts["router.rc_computations"] = float64(e.RCComputations)
	o.counts["router.va_allocations"] = float64(e.VAAllocations)
	o.counts["router.sa_grants"] = float64(e.SAGrants)
	o.counts["router.crossings"] = float64(e.Crossings)
	o.counts["router.gather_uploads"] = float64(e.GatherUploads)
	o.counts["router.reduce_merges"] = float64(e.ReduceMerges)
	o.counts["link.flits"] = float64(e.LinkFlits)
	o.counts["nic.packets_injected"] = float64(packets)
	o.counts["nic.flits_injected"] = float64(flits)
}

// networkCounts files what a finished network reports about itself and
// checks the invariants every workload shares: consistent routers and,
// once the fabric is quiescent, no flit still out of the pool.
func networkCounts(o *observation, nw *noc.Network) {
	a := nw.Activity()
	events := eventsOf(a)
	activityCounts(o, events, a.PacketsSent, a.FlitsSent)
	o.energyPJ = power.Compute(events, power.DefaultCoefficients(), 0, 0).NoCPJ

	var retransmits, abandoned, duplicates, piggyback, selfInit uint64
	for id := 0; id < nw.Topology().NumNodes(); id++ {
		n := nw.NIC(topology.NodeID(id))
		retransmits += n.Retransmits.Value()
		abandoned += n.AbandonedPayloads.Value()
		piggyback += n.PiggybackAcks.Value()
		selfInit += n.SelfInitiatedGathers.Value()
		duplicates += n.Ejector().DuplicatesSuppressed.Value()
	}
	for row := 0; row < nw.Config().Rows; row++ {
		if s := nw.Sink(row); s != nil {
			duplicates += s.Ejector().DuplicatesSuppressed.Value()
		}
	}
	o.counts["nic.retransmits"] = float64(retransmits)
	o.counts["nic.abandoned"] = float64(abandoned)
	o.counts["nic.duplicates_suppressed"] = float64(duplicates)
	o.counts["nic.piggyback_share"] = share(piggyback, piggyback+selfInit)
	if abandoned != 0 {
		o.failf("%d payloads abandoned", abandoned)
	}

	eng := nw.Engine()
	o.counts["sim.evaluated"] = float64(eng.Evaluated())
	o.counts["sim.skipped"] = float64(eng.Skipped())
	o.counts["sim.skipped_share"] = share(eng.Skipped(), eng.Evaluated()+eng.Skipped())

	pool := nw.FlitPool()
	o.counts["flit.pool_misses"] = float64(pool.Misses())
	o.counts["flit.pool_drops"] = float64(pool.Drops())
	o.counts["flit.pool_live_end"] = float64(pool.Live())
	if err := nw.CheckInvariants(); err != nil {
		o.failf("invariants: %v", err)
	}
	if nw.Quiescent() && pool.Live() != 0 {
		o.failf("%d flits live in a quiescent fabric", pool.Live())
	}
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// simTimes files the engine's host-time metrics of a traced run: the time
// inside RunUntil and, with the driver ticks under tickSpan taken out,
// what is left per router-cycle, per evaluation and per crossbar
// traversal.
func simTimes(o *observation, tr *tracer, routers int, tickSpan string) {
	runS := tr.total("sim.Engine.RunUntil")
	o.times["sim.run_s"] = runS
	o.times["sim.cycle_ns_p50"] = tr.chunkNS.Percentile(50)
	o.times["sim.cycle_ns_p99"] = tr.chunkNS.Percentile(99)
	fabricNS := (runS - tr.total(tickSpan)) * 1e9
	if o.simCycles > 0 {
		o.times["sim.ns_per_router_cycle"] = fabricNS / (o.simCycles * float64(routers))
	}
	if ev := o.counts["sim.evaluated"]; ev > 0 {
		o.times["sim.ns_per_evaluation"] = fabricNS / ev
	}
	if x := o.counts["router.crossings"]; x > 0 {
		o.times["router.ns_per_crossing"] = fabricNS / x
	}
}

// runFabric is one op of sat8, idle8 and mesh32: build the mesh, drive
// uniform random traffic through warm-up, measurement and drain, check
// the result. It mirrors what `nocsim -rows N -cols N -rate R` does.
func runFabric(sz fabricSize, seed int64, shards int, tr *tracer) *observation {
	o := newObservation()
	cfg := noc.DefaultConfig(sz.mesh, sz.mesh)
	cfg.EastSinks = false
	cfg.Shards = shards

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

	nodes := nw.Topology().NumNodes()
	tr.begin("traffic.NewGenerator")
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: nodes},
		InjectionRate: sz.rate,
		PacketFlits:   fabricPacketFlits,
		Warmup:        fabricWarmup,
		Measure:       sz.measure,
		Seed:          seed,
	})
	tr.end()
	if err != nil {
		o.failf("traffic.NewGenerator: %v", err)
		return o
	}

	var res *traffic.GeneratorResult
	if tr == nil {
		res, err = gen.Run(fabricMaxCycles)
	} else {
		// The same schedule gen.Run issues, in timed chunks.
		eng := nw.Engine()
		clock := &tickClock{span: "traffic.Generator.Tick"}
		eng.AddTicker(&timedTicker{inner: gen, clock: clock})
		done := func() bool { return gen.Injected() && nw.Quiescent() }
		var pause func(int64)
		if sz.snapshotAt > 0 {
			taken := false
			pause = func(cycle int64) {
				if !taken && cycle >= sz.snapshotAt {
					taken = true
					checkpointProbe(o, tr, nw)
				}
			}
		}
		c0, t0 := cpuSeconds(), time.Now()
		var cycles int64
		cycles, err = tr.drive(eng, done, fabricMaxCycles, []*tickClock{clock}, nil, pause)
		if wall := time.Since(t0).Seconds(); wall > 0 && shards > 0 {
			o.times["sim.shard_cpu_ratio"] = (cpuSeconds() - c0) / wall
		}
		res = gen.Result(cycles)
	}
	if err != nil {
		o.failf("run: %v", err)
		return o
	}

	o.simCycles = float64(res.Cycles)
	networkCounts(o, nw)
	o.counts["traffic.latency_mean_cycles"] = res.Latency.Mean()
	o.counts["traffic.latency_p99_cycles"] = res.Latency.Percentile(99)
	o.counts["traffic.throughput"] = res.Throughput
	if want, err := analytic.UniformMeanHops("mesh", sz.mesh, sz.mesh); err == nil && want > 0 {
		o.counts["analytic.mean_hops_gap_pct"] = math.Abs(res.Hops.Mean()-want) / want * 100
	}
	if gen.Sent() != gen.Delivered() {
		o.failf("sent %d != delivered %d", gen.Sent(), gen.Delivered())
	}
	if res.Injected != res.Received {
		o.failf("measured injected %d != received %d", res.Injected, res.Received)
	}
	if tr != nil {
		simTimes(o, tr, nodes, "traffic.Generator.Tick")
		o.times["traffic.tick_s"] = tr.total("traffic.Generator.Tick")
	}
	return o
}

// checkpointProbe prices one checkpoint of a running network: capture and
// encode, then decode and restore onto a freshly built network, which is
// discarded. The running network is only read, so the op's simulated
// results are the ones an unprobed run gives.
func checkpointProbe(o *observation, tr *tracer, nw *noc.Network) {
	tr.begin("bench.probe")
	defer tr.end()
	tr.begin("noc.Snapshot")
	snap, err := nw.Snapshot()
	var data []byte
	if err == nil {
		data, err = noc.EncodeSnapshot(snap)
	}
	tr.end()
	if err != nil {
		o.failf("snapshot: %v", err)
		return
	}
	tr.begin("noc.Restore")
	decoded, err := noc.DecodeSnapshot(data)
	if err == nil {
		var fresh *noc.Network
		if fresh, err = noc.New(nw.Config()); err == nil {
			err = fresh.Restore(decoded)
			fresh.Close()
		}
	}
	tr.end()
	if err != nil {
		o.failf("restore: %v", err)
		return
	}
	o.times["noc.snapshot_s"] = tr.total("noc.Snapshot")
	o.times["noc.restore_s"] = tr.total("noc.Restore")
	o.counts["noc.snapshot_bytes"] = float64(len(data))
}
