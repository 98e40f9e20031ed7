package gathernoc

import (
	"io"
	"math"
	"runtime"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/fault"
	"gathernoc/internal/noc"
	"gathernoc/internal/round"
	"gathernoc/internal/systolic"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// never is the RunUntil predicate of a run that goes the whole budget.
func never() bool { return false }

// maxSteadyStateAllocsPerCycle is the allocation ratchet: the pinned
// ceiling on heap allocations per simulated cycle once a network has
// reached its steady state (pools, rings and sample chunks warmed to
// their high-water marks). The zero-allocation hot-path work (PR 3)
// brought the steady state to ~0 allocs/cycle — the only remaining
// sources are the occasional stats chunk and deque block at high-water
// growth. The ceiling leaves headroom for measurement jitter while
// still failing loudly if a per-flit or per-packet allocation sneaks
// back into the pipeline (pre-PR3 steady state was ~10 allocs/cycle at
// this operating point, ~270 at saturation). PR 5 tightened it from 1.0
// to 0.5 after the workload-scheduler path measured the same ~0.11
// allocs/cycle as the direct path — per-tag dispatch, admission scans
// and job accounting all stay off the allocator.
//
// If this test fails, profile the test's own run with:
//
//	go test -run '^TestAllocationRatchet$' -count 1 -memprofile mem.out .
const maxSteadyStateAllocsPerCycle = 0.5

// TestAllocationRatchet drives an 8x8 mesh under sustained uniform-random
// traffic, warms it past every one-time growth, then measures allocations
// per cycle with the allocator's own accounting. The workload stays below
// saturation so queues oscillate around a fixed depth — the steady state
// the zero-alloc discipline is about.
func TestAllocationRatchet(t *testing.T) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Warmup:        0,
		Measure:       1 << 40, // never stop injecting
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := nw.Engine()
	eng.AddTicker(gen)

	// Warm-up: reach the pool/ring/chunk high-water marks.
	eng.RunUntil(never, 3000)

	const cyclesPerRun = 500
	avg := testing.AllocsPerRun(4, func() {
		eng.RunUntil(never, cyclesPerRun)
	})
	perCycle := avg / cyclesPerRun
	t.Logf("steady state: %.4f allocs/cycle (%.0f allocs per %d-cycle run)", perCycle, avg, cyclesPerRun)
	if perCycle > maxSteadyStateAllocsPerCycle {
		t.Fatalf("steady-state allocations regressed: %.4f allocs/cycle, ratchet ceiling %v",
			perCycle, maxSteadyStateAllocsPerCycle)
	}
}

// maxBuildAllocs8x8 and maxBuildAllocs32x32 pin what building one fabric
// may allocate. A build costs about as much as one of the paper's short
// simulations, and every run that does not find a released network to
// reuse pays it. The 8x8 build took 5012 allocations when every component
// and wake handle was a heap node of its own, 3652 once the engine kept
// its components in one slice per phase, cut wake handles from blocks of
// 256 and links formatted their names only when asked. Every shard's
// routers, links and NICs, with their VC buffers, counters and staging
// rings, come out of a few slabs per shard (DESIGN.md §9), which left
// about two allocations per node, the two ack callbacks each NIC handed
// its router's stations (8x8 230 or 231, 32x32 2256). The stations now
// ack their owner, the NIC, and the engine sizes its lists once
// (sim.Engine.Reserve): 8x8 measures 69 and 32x32 134. Each ceiling is
// that plus 10 %, so a per-component allocation coming back fails here.
const (
	maxBuildAllocs8x8   = 76
	maxBuildAllocs32x32 = 148
)

func TestBuildAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	for _, c := range []struct {
		n   int
		pin float64
	}{{8, maxBuildAllocs8x8}, {32, maxBuildAllocs32x32}} {
		cfg := noc.DefaultConfig(c.n, c.n)
		cfg.EastSinks = false
		avg := testing.AllocsPerRun(3, func() {
			if _, err := noc.New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("noc.New(%dx%d): %.0f allocs", c.n, c.n, avg)
		if avg > c.pin {
			t.Errorf("noc.New(%dx%d) allocates %.0f objects, pin %.0f", c.n, c.n, avg, c.pin)
		}
	}
}

// maxFirstUseAllocs pins what the first 300 cycles of a freshly built 8x8
// allocate under uniform traffic at rate 0.05: routers, links, NICs and
// ejectors allocate nothing after the build, so what is left is each NIC's
// first injection-queue block (three allocations a NIC), the first chunks
// of the ejectors' latency samples and a few flit-pool blocks, 372 to 378
// in all.
// When VC rings, branch lists, link staging rings and pooled flits were
// allocated on first use the same cycles took 2932.
const maxFirstUseAllocs = 400

func TestFirstUseAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Measure:       1 << 40, // never stop injecting
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Engine().AddTicker(gen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw.Engine().RunUntil(never, 300)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("first 300 cycles of a new 8x8: %d allocs", allocs)
	if allocs > maxFirstUseAllocs {
		t.Fatalf("the first 300 cycles of a new 8x8 allocate %d objects, pin %d", allocs, maxFirstUseAllocs)
	}
}

// TestShardedAllocationRatchet extends the ratchet to the sharded tick
// loop (DESIGN.md §9): the same operating point as the direct test, run
// on 4 row-partition shards. The parallel phases must not allocate per
// cycle either — shard views of the flit pool keep freelists local, the
// worker loop waits on one atomic word and on channels made once, and
// staged ejection reuses its packet and payload arenas. The ceiling is
// shared with the sequential path.
func TestShardedAllocationRatchet(t *testing.T) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	cfg.Shards = 4
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Warmup:        0,
		Measure:       1 << 40, // never stop injecting
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := nw.Engine()
	eng.AddTicker(gen)

	// Warm-up: reach the high-water marks *and* start the shard workers
	// (lazily spawned on the first step — their goroutine and channel
	// allocations are one-time, not steady state).
	eng.RunUntil(never, 3000)

	const cyclesPerRun = 500
	avg := testing.AllocsPerRun(4, func() {
		eng.RunUntil(never, cyclesPerRun)
	})
	perCycle := avg / cyclesPerRun
	t.Logf("sharded steady state: %.4f allocs/cycle (%.0f allocs per %d-cycle run)", perCycle, avg, cyclesPerRun)
	if perCycle > maxSteadyStateAllocsPerCycle {
		t.Fatalf("sharded steady-state allocations regressed: %.4f allocs/cycle, ratchet ceiling %v",
			perCycle, maxSteadyStateAllocsPerCycle)
	}
}

// TestShardedFlitPoolLeakFreedom runs cross-shard traffic with the
// pool's ownership checker on and asserts a drained sharded network
// holds zero outstanding flits. Flits routinely migrate between shard
// views here — acquired by a NIC in one row block, released by an
// ejector in another — so this pins the aggregate accounting across
// views (per-view counters may individually go negative; only the
// root's sum is meaningful).
func TestShardedFlitPoolLeakFreedom(t *testing.T) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	cfg.Shards = 4
	cfg.DebugFlitPool = true
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
	res, err := gen.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != res.Received {
		t.Fatalf("drain incomplete: injected %d, received %d", res.Injected, res.Received)
	}
	if live := nw.FlitPool().Live(); live != 0 {
		t.Fatalf("drained sharded network holds %d leaked flits", live)
	}
	if nw.FlitPool().Misses() == 0 {
		t.Fatal("pool never allocated — workload did not exercise it")
	}
}

// TestTelemetryAllocationRatchet extends the ratchet to a telemetry-on
// network (DESIGN.md §11): an event buffer doubles as it fills, so the
// sampled Emits of a steady run cost one allocation per doubling (none or
// one per measured run here), and the epoch collector allocates one ring
// row per probe per epoch until its window is full (1/64 per cycle here,
// far inside the window) and after that only for a row that outgrows its
// slot — the recording path stays bounded by the same ceiling as the dark
// network.
func TestTelemetryAllocationRatchet(t *testing.T) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	cfg.Telemetry = &telemetry.Config{Epoch: 64, TraceSample: 16}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Warmup:        0,
		Measure:       1 << 40, // never stop injecting
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := nw.Engine()
	eng.AddTicker(gen)

	// Warm-up: reach the pool/ring/chunk high-water marks.
	eng.RunUntil(never, 3000)

	const cyclesPerRun = 500
	avg := testing.AllocsPerRun(4, func() {
		eng.RunUntil(never, cyclesPerRun)
	})
	perCycle := avg / cyclesPerRun
	t.Logf("telemetry-on steady state: %.4f allocs/cycle (%.0f allocs per %d-cycle run)", perCycle, avg, cyclesPerRun)
	if perCycle > maxSteadyStateAllocsPerCycle {
		t.Fatalf("telemetry-on steady-state allocations regressed: %.4f allocs/cycle, ratchet ceiling %v",
			perCycle, maxSteadyStateAllocsPerCycle)
	}
}

// maxTelemetryBuildBytes16x16 pins what building a telemetry-on fabric may
// allocate: noc.New of model-mix's 16x16 (faults on, default telemetry)
// measured 4.76 MB when the fabric took 3.1 MB of it, the rest the metrics
// sources and the telemetry wiring, whose snapshot values sit in two flat
// arrays per probe (0.71 MB more when every source allocated two of its
// own). Since the fabric's per-node state was halved (DESIGN.md §9: byte
// counters and indices, a VC's buffer as a window of its router's slab,
// cold fields out of the hot records) it measures 3.21 MB. The fabric's
// buffers are built up front, out of per-shard slabs: VC buffers, link
// staging rings, ejector buffers and partial-packet records, bytes the run
// would otherwise allocate on its first cycles. Neither buffer that grows
// with the run is built up front: the trace event buffers (5.2 MB when
// they were allocated at their 65 536-event bound) grow as events arrive,
// and the epoch ring (83 MB when it was zeroed at its 1 024-epoch bound as
// dense rows) gains a row per epoch reached. The ceiling is the
// measurement plus 10 %.
const maxTelemetryBuildBytes16x16 = 3_540_000

// maxBuildBytes32x32 pins what building the 32x32 fabric of the mesh32
// workload (sequential, no east sinks) may allocate. It measured 12.8 MB,
// about 12.5 KB a node, when routers, links, NICs and engine lists held
// word-sized counters, a 40-byte ring and a 120-byte record per VC and the
// engine grew its lists by appending; the fabric then ran a third slower
// per evaluation than at 16x16 (BenchmarkEvaluationCost). It measures 6.03
// MB now. The ceiling is half the old measurement.
const maxBuildBytes32x32 = 6_400_000

func TestTelemetryBuildBytesPin(t *testing.T) {
	cfg := noc.DefaultConfig(16, 16)
	cfg.Faults = &fault.Config{Seed: 1, DropRate: 0.002, CorruptRate: 0.0005}
	tcfg := telemetry.DefaultConfig()
	cfg.Telemetry = &tcfg
	least := buildBytes(t, cfg)
	t.Logf("noc.New(16x16, faults, telemetry): %d bytes", least)
	if least > maxTelemetryBuildBytes16x16 {
		t.Fatalf("telemetry-on noc.New(16x16) allocates %d bytes, pin %d", least, maxTelemetryBuildBytes16x16)
	}
}

func TestBuildBytesPin(t *testing.T) {
	cfg := noc.DefaultConfig(32, 32)
	cfg.EastSinks = false
	least := buildBytes(t, cfg)
	t.Logf("noc.New(32x32): %d bytes", least)
	if least > maxBuildBytes32x32 {
		t.Fatalf("noc.New(32x32) allocates %d bytes, pin %d", least, maxBuildBytes32x32)
	}
}

// buildBytes returns the least of three readings of the bytes noc.New(cfg)
// allocates.
func buildBytes(t *testing.T, cfg noc.Config) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		nw.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// telemetryNetwork runs the 8x8 sequential fabric under uniform traffic
// with 16-cycle epochs for the given number of epochs, ready to harvest.
func telemetryNetwork(t *testing.T, epochs int64) *noc.Network {
	return uniformNetwork(t, &telemetry.Config{Epoch: 16}, 16*epochs)
}

// uniformNetwork runs the 8x8 sequential fabric under uniform traffic for
// the given cycles with the given telemetry (nil for none).
func uniformNetwork(t *testing.T, tcfg *telemetry.Config, cycles int64) *noc.Network {
	t.Helper()
	cfg := noc.DefaultConfig(8, 8)
	cfg.Telemetry = tcfg
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.05,
		PacketFlits:   2,
		Measure:       1 << 40,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Engine().AddTicker(gen)
	nw.Engine().RunUntil(never, cycles)
	return nw
}

// maxRingBytesPerEpoch pins what one more retained epoch of the 8x8
// telemetryNetwork adds to its epoch ring: the epoch's packed row (a
// presence bitmap, ranks and offsets, and the moved sources' fields as
// varints) and its share of the ring's slot headers. It measured 4 192
// bytes; int64 rows, dense or sparse, measured 12 406. The pin is the
// measurement plus 10 %.
const maxRingBytesPerEpoch = 4611

// TestRingBytesPin: what a telemetry-on 8x8 allocates over the 90 epochs
// after its 10th, less what the same run allocates with telemetry off, per
// epoch. The difference is the ring rows and slot headers those epochs
// add, nothing the fabric allocates, and both runs are deterministic, so
// the count is exact and no host noise can hide a regression.
func TestRingBytesPin(t *testing.T) {
	over := func(tcfg *telemetry.Config) int64 {
		nw := uniformNetwork(t, tcfg, 16*10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nw.Engine().RunUntil(never, 16*90)
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	on, off := over(&telemetry.Config{Epoch: 16}), over(nil)
	perEpoch := (on - off) / 90
	t.Logf("8x8 epoch ring: %d bytes per retained epoch (%d with telemetry, %d without, over 90 epochs)", perEpoch, on, off)
	if perEpoch > maxRingBytesPerEpoch {
		t.Fatalf("the epoch ring holds %d bytes per retained epoch, pin %d", perEpoch, maxRingBytesPerEpoch)
	}
}

// TestMetricsCSVAllocationPin: WriteMetricsCSV formats into one reused
// buffer with every label quoted once up front, so what it allocates
// depends on how many sources the report has and not on how many epochs —
// the 8x8 report costs the same handful of objects at 10 epochs as at 100.
func TestMetricsCSVAllocationPin(t *testing.T) {
	allocs := func(epochs int64) float64 {
		rep := telemetryNetwork(t, epochs).HarvestTelemetry()
		if int64(len(rep.EpochIndex)) != epochs {
			t.Fatalf("harvested %d epochs, want %d", len(rep.EpochIndex), epochs)
		}
		return testing.AllocsPerRun(3, func() {
			if err := rep.WriteMetricsCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	at10, at100 := allocs(10), allocs(100)
	t.Logf("WriteMetricsCSV(8x8): %.0f allocs at 10 epochs, %.0f at 100", at10, at100)
	if at10 != at100 {
		t.Fatalf("WriteMetricsCSV allocations grow with the epoch count: %.0f at 10 epochs, %.0f at 100", at10, at100)
	}
}

// maxTraceAllocsPerEvent bounds what WriteChromeTrace allocates per
// recorded event. The writer appends every trace event into one reused
// buffer and regroups the events with a counting sort, so what it
// allocates is the grouping index, the track sets and their map growth;
// building a trace event, an args map and a json.Marshal per event, as it
// once did, cost 7.7 allocations per event on the run below; the writer
// that appends measured 50 allocations for its 36 731 events.
const maxTraceAllocsPerEvent = 0.25

// TestChromeTraceAllocationPin: exporting the trace of a fully traced 8x8
// run costs fewer than maxTraceAllocsPerEvent allocations per event.
func TestChromeTraceAllocationPin(t *testing.T) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.Telemetry = &telemetry.Config{TraceSample: 1}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 64},
		InjectionRate: 0.02,
		PacketFlits:   2,
		Measure:       1 << 40,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Engine().AddTicker(gen)
	nw.Engine().RunUntil(never, 1000)
	rep := nw.HarvestTelemetry()
	if len(rep.Events) < 10_000 || rep.DroppedEvents != 0 {
		t.Fatalf("run recorded %d events (%d dropped); the pin needs a long trace", len(rep.Events), rep.DroppedEvents)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := rep.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(len(rep.Events))
	t.Logf("WriteChromeTrace(8x8): %.0f allocs for %d events, %.4f per event", allocs, len(rep.Events), perEvent)
	if perEvent >= maxTraceAllocsPerEvent {
		t.Fatalf("WriteChromeTrace allocates %.4f per event, pin %v", perEvent, maxTraceAllocsPerEvent)
	}
}

// maxHarvestBytesPerEpoch bounds what one more retained epoch adds to a
// Harvest of the 8x8 sequential fabric: the epoch's row header in the
// probe's shared row list and its two axis entries, 40 bytes, plus
// size-class slack. A row header per source per epoch, as Harvest once
// allocated, measured 23 KB per epoch here (24 bytes times 850-odd sources).
const maxHarvestBytesPerEpoch = 64

// TestHarvestAllocationPin: Harvest hands every series the ring rows its
// probe already holds — one row list per probe, an offset per source — so
// its allocation count follows the probes and sources, equal at 10 epochs
// and at 100, and its bytes grow by a row header per probe per epoch.
func TestHarvestAllocationPin(t *testing.T) {
	const runs = 3
	measure := func(epochs int64) (allocs float64, bytes uint64) {
		nw := telemetryNetwork(t, epochs)
		if n := len(nw.HarvestTelemetry().EpochIndex); int64(n) != epochs {
			t.Fatalf("harvested %d epochs, want %d", n, epochs)
		}
		// The run ended on an epoch boundary, so a second harvest flushes
		// nothing and measures the merge alone.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			nw.HarvestTelemetry()
		}
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(runs, func() { nw.HarvestTelemetry() }),
			(after.TotalAlloc - before.TotalAlloc) / runs
	}
	allocs10, bytes10 := measure(10)
	allocs100, bytes100 := measure(100)
	t.Logf("Harvest(8x8): %.0f allocs, %d bytes at 10 epochs; %.0f allocs, %d bytes at 100", allocs10, bytes10, allocs100, bytes100)
	if allocs10 != allocs100 {
		t.Fatalf("Harvest allocations grow with the epoch count: %.0f at 10 epochs, %.0f at 100", allocs10, allocs100)
	}
	if perEpoch := (int64(bytes100) - int64(bytes10)) / 90; perEpoch > maxHarvestBytesPerEpoch {
		t.Fatalf("Harvest allocates %d more bytes per retained epoch, pin %d", perEpoch, maxHarvestBytesPerEpoch)
	}
}

// TestSchedulerAllocationRatchet extends the ratchet to the workload
// scheduler's multi-job path: three concurrent tagged jobs on one fabric,
// dispatched per-cycle through the scheduler's admission scan and
// per-tag packet routing. Phase admission, job tagging and dispatch must
// not allocate per cycle; the steady state is bounded by the same
// ceiling as the direct path (the only allocators left are the
// amortized stats chunks, now one latency sample per job).
func TestSchedulerAllocationRatchet(t *testing.T) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]workload.Job, 3)
	for i := range jobs {
		gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
			Pattern:       traffic.UniformRandom{Nodes: 64},
			InjectionRate: 0.02,
			PacketFlits:   2,
			Warmup:        0,
			Measure:       1 << 40, // never stop injecting
			Seed:          int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = workload.Job{
			Name:   "soak",
			Phases: []workload.Phase{{Name: "uniform", Driver: gen}},
		}
	}
	s, err := workload.New(nw, jobs)
	if err != nil {
		t.Fatal(err)
	}
	eng := nw.Engine()
	eng.AddTicker(s)

	// Warm-up: reach the pool/ring/chunk high-water marks.
	eng.RunUntil(never, 3000)

	const cyclesPerRun = 500
	avg := testing.AllocsPerRun(4, func() {
		eng.RunUntil(never, cyclesPerRun)
	})
	perCycle := avg / cyclesPerRun
	t.Logf("multi-job steady state: %.4f allocs/cycle (%.0f allocs per %d-cycle run)", perCycle, avg, cyclesPerRun)
	if perCycle > maxSteadyStateAllocsPerCycle {
		t.Fatalf("scheduler steady-state allocations regressed: %.4f allocs/cycle, ratchet ceiling %v",
			perCycle, maxSteadyStateAllocsPerCycle)
	}
}

// fastForwardAllocs is what proving a layer's rounds repeat allocates beyond
// simulating two of them, measured on the run TestFastForwardAllocationPin
// makes: nothing. The network's encoder keeps its name tables and the round
// loop takes its two encoding buffers from a pool, so once they have grown
// to the fabric's size the proof allocates nothing.
const fastForwardAllocs = 0

// TestFastForwardAllocationPin pins the periodicity proof's allocations. On
// a reused (noc.Acquire) 16×16 network, AlexNet Conv1 at MaxRounds 3 proves
// its third round repeats the second and skips it, and must allocate no
// more than the same run at MaxRounds 2, which takes no encoding, plus
// fastForwardAllocs, plus 10 %. The race detector has sync.Pool drop Puts,
// which the proof's buffers come from, so the pin holds only without it.
func TestFastForwardAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	if !ok {
		t.Fatal("Conv1 missing")
	}
	allocs := func(rounds int) float64 {
		run := func() {
			nw, err := noc.Acquire(noc.DefaultConfig(16, 16))
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := systolic.NewController(nw, systolic.Config{Layer: layer, Mode: systolic.GatherMode, TMAC: 5, MaxRounds: rounds})
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := workload.Run(nw, ctl, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if rounds == 3 && nw.Engine().Cycle() >= cycles {
				t.Fatal("the three-round run did not fast-forward")
			}
			nw.Release()
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	two, three := allocs(2), allocs(3)
	t.Logf("AlexNet Conv1 on a reused 16x16: %.1f allocs at MaxRounds 2, %.1f at 3", two, three)
	if ceiling := (two + fastForwardAllocs) * 1.1; three > ceiling {
		t.Fatalf("the proving run allocates %.1f, over %.1f (MaxRounds 2 plus %d, plus 10 %%)", three, ceiling, fastForwardAllocs)
	}
}

// replayAllocs is what a run replayed from a trajectory table allocates,
// measured on the run TestReplayAllocationPin makes: taking the network
// from the reuse pool, building the controller (its 16 row plans alone are
// 48), the table's follower, the accounted growth and the Result. No
// packet is built and no round simulated; simulating the same run at
// MaxRounds 3 allocates about 150.
const replayAllocs = 91

// TestReplayAllocationPin pins what a replayed layer run allocates. On a
// reused 16×16 network, AlexNet Conv2 at MaxRounds 3 follows a table in
// which Conv1 recorded its trajectory, and must replay it allocating no
// more than replayAllocs plus 10 %. Like the fast-forward's pin it holds
// only without the race detector.
func TestReplayAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	var table round.Trajectories
	run := func(name string) {
		layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		nw, err := noc.Acquire(noc.DefaultConfig(16, 16))
		if err != nil {
			t.Fatal(err)
		}
		cfg := systolic.Config{Layer: layer, Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 3}
		ctl, err := systolic.NewController(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctl.Join(&table, trajectoryKey(nw, cfg))
		if _, err := workload.Run(nw, ctl, 1_000_000); err != nil {
			t.Fatal(err)
		}
		nw.Release()
	}
	run("Conv1")
	before := round.Replayed()
	replay := testing.AllocsPerRun(10, func() { run("Conv2") })
	if got := round.Replayed() - before; got != 11 {
		t.Fatalf("%d of 11 runs replayed", got)
	}
	t.Logf("AlexNet Conv2 replayed on a reused 16x16: %.1f allocs", replay)
	if ceiling := replayAllocs * 1.1; replay > ceiling {
		t.Fatalf("the replayed run allocates %.1f, over %.1f (%d plus 10 %%)", replay, ceiling, replayAllocs)
	}
}
