package gathernoc

import (
	"fmt"
	"runtime"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
	"gathernoc/internal/systolic"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// shardMatrix is the shard-count grid the equivalence tests sweep,
// NumCPU included so CI exercises whatever parallelism the host has.
func shardMatrix() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestShardedEngineEquivalenceSyntheticTraffic is the bit-identity proof
// for the sharded engine on synthetic traffic: for every shard count the
// row-partitioned two-phase engine must reproduce the sequential engine's
// packet accounting, latency statistics and network activity exactly,
// from the low operating point through saturation. Any divergence means a
// parallel phase touched state it did not own, or serial-phase work ran
// out of canonical order (DESIGN.md §9).
func TestShardedEngineEquivalenceSyntheticTraffic(t *testing.T) {
	for _, rate := range []float64{0.005, 0.30} {
		rate := rate
		t.Run(ratename(rate), func(t *testing.T) {
			type outcome struct {
				res      *traffic.GeneratorResult
				activity noc.Activity
				work     engineWork
			}
			run := func(shards int) outcome {
				t.Helper()
				cfg := noc.DefaultConfig(8, 8)
				cfg.EastSinks = false
				cfg.Shards = shards
				nw, err := noc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
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
				return outcome{res: res, activity: nw.Activity(), work: workOf(t, nw, 1)}
			}
			seq := run(0)
			for _, shards := range shardMatrix() {
				shards := shards
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					got := run(shards)
					share := checkSkipAccounting(t, got.work)
					if rate < 0.01 && share <= 0.5 {
						t.Errorf("sharded engine skipped %.1f%% of the evaluations at rate %v, want more than half", 100*share, rate)
					}
					if got.activity != seq.activity {
						t.Errorf("activity diverged:\nsequential %+v\nsharded    %+v", seq.activity, got.activity)
					}
					s, g := seq.res, got.res
					if s.Injected != g.Injected || s.Received != g.Received || s.Cycles != g.Cycles {
						t.Errorf("accounting diverged: sequential inj=%d recv=%d cyc=%d, sharded inj=%d recv=%d cyc=%d",
							s.Injected, s.Received, s.Cycles, g.Injected, g.Received, g.Cycles)
					}
					for _, c := range []struct {
						name string
						seq  *stats.Sample
						got  *stats.Sample
					}{
						{"latency", &s.Latency, &g.Latency},
						{"queue-latency", &s.QueueLatency, &g.QueueLatency},
						{"network-latency", &s.NetworkLatency, &g.NetworkLatency},
						{"hops", &s.Hops, &g.Hops},
					} {
						if !sameSample(c.seq, c.got) {
							t.Errorf("%s sample diverged: sequential %s, sharded %s", c.name, c.seq, c.got)
						}
					}
				})
			}
		})
	}
}

// TestShardedEngineEquivalenceScheduler drives the workload scheduler —
// the serial sub-phase's main customer, with its per-cycle tag clearing
// and multi-job admission — on a sharded fabric and requires the
// sequential schedule bit for bit: per-job timelines, latency samples and
// total activity.
func TestShardedEngineEquivalenceScheduler(t *testing.T) {
	run := func(shards int) (*workload.Result, noc.Activity, engineWork) {
		t.Helper()
		cfg := noc.DefaultConfig(8, 8)
		cfg.EastSinks = false
		cfg.Shards = shards
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
				Measure:       900,
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
		res, err := s.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res, nw.Activity(), workOf(t, nw, 1)
	}
	seqRes, seqAct, _ := run(0)
	for _, shards := range shardMatrix() {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			res, act, work := run(shards)
			checkSkipAccounting(t, work)
			if act != seqAct {
				t.Errorf("activity diverged:\nsequential %+v\nsharded    %+v", seqAct, act)
			}
			if res.Cycles != seqRes.Cycles {
				t.Errorf("run length diverged: sequential %d, sharded %d", seqRes.Cycles, res.Cycles)
			}
			for j := range seqRes.Jobs {
				sj, gj := &seqRes.Jobs[j], &res.Jobs[j]
				if sj.StartCycle != gj.StartCycle || sj.DrainedCycle != gj.DrainedCycle ||
					sj.PacketsEjected != gj.PacketsEjected {
					t.Errorf("job %s diverged: sequential start=%d done=%d pkts=%d, sharded start=%d done=%d pkts=%d",
						sj.Name, sj.StartCycle, sj.DrainedCycle, sj.PacketsEjected,
						gj.StartCycle, gj.DrainedCycle, gj.PacketsEjected)
				}
				if !sameSample(sj.Latency, gj.Latency) {
					t.Errorf("job %s latency diverged: sequential %s, sharded %s", sj.Name, sj.Latency, gj.Latency)
				}
			}
		})
	}
}

// TestShardedEngineEquivalenceLayers replays the paper's CNN collection
// workloads — repetitive unicast and gather mode, with their east-edge
// sinks, gather stations and piggybacked acks — on the sharded engine and
// requires the golden-pinned schedule bit for bit at every shard count.
func TestShardedEngineEquivalenceLayers(t *testing.T) {
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	if !ok {
		t.Fatal("Conv1 missing")
	}
	for _, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			run := func(shards int) *core.LayerReport {
				t.Helper()
				rep, err := core.RunLayer(8, 8, layer, mode, core.Options{
					Rounds:        1,
					MutateNetwork: func(c *noc.Config) { c.Shards = shards },
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			seq := run(0)
			for _, shards := range shardMatrix() {
				shards := shards
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					got := run(shards)
					work, cycles := layerWork(t, layer, mode, shards)
					checkSkipAccounting(t, work)
					if cycles != got.Result.TotalCycles {
						t.Errorf("the accounting run took %d cycles, core.RunLayer %d: not the same cell", cycles, got.Result.TotalCycles)
					}
					if seq.Events != got.Events {
						t.Errorf("activity diverged:\nsequential %+v\nsharded    %+v", seq.Events, got.Events)
					}
					sr, gr := seq.Result, got.Result
					if sr.TotalCycles != gr.TotalCycles || sr.MeasuredCycles != gr.MeasuredCycles {
						t.Errorf("cycles diverged: sequential total=%d measured=%d, sharded total=%d measured=%d",
							sr.TotalCycles, sr.MeasuredCycles, gr.TotalCycles, gr.MeasuredCycles)
					}
					if sr.RoundCycles.Mean() != gr.RoundCycles.Mean() ||
						sr.CollectionCycles.Mean() != gr.CollectionCycles.Mean() {
						t.Errorf("round latencies diverged: sequential %v/%v, sharded %v/%v",
							sr.RoundCycles.Mean(), sr.CollectionCycles.Mean(),
							gr.RoundCycles.Mean(), gr.CollectionCycles.Mean())
					}
					if sr.SelfInitiatedGathers != gr.SelfInitiatedGathers || sr.PiggybackAcks != gr.PiggybackAcks {
						t.Errorf("gather protocol diverged: sequential self=%d acks=%d, sharded self=%d acks=%d",
							sr.SelfInitiatedGathers, sr.PiggybackAcks,
							gr.SelfInitiatedGathers, gr.PiggybackAcks)
					}
					if sr.PayloadErrors != 0 || gr.PayloadErrors != 0 {
						t.Errorf("payload errors: sequential %d, sharded %d", sr.PayloadErrors, gr.PayloadErrors)
					}
				})
			}
		})
	}
}

// engineWork is the engine's own account of a run: component evaluations
// made and elided, and what an always-tick engine would have made of the
// same run.
type engineWork struct{ evaluated, skipped, alwaysTick uint64 }

// workOf reads a finished run's counters. drivers is how many tickers the
// workload layer added to the engine. The always-tick total is every
// registered component once per cycle; one cycle of an always-tick network
// of the same configuration counts the components.
func workOf(t *testing.T, nw *noc.Network, drivers int) engineWork {
	t.Helper()
	naive, err := noc.New(nw.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	naive.Engine().SetAlwaysTick(true)
	for i := 0; i < drivers; i++ {
		naive.Engine().AddTicker(idleDriver{})
	}
	naive.Engine().Step()
	if naive.Engine().Skipped() != 0 {
		t.Errorf("always-tick engine skipped %d evaluations", naive.Engine().Skipped())
	}
	eng := nw.Engine()
	return engineWork{eng.Evaluated(), eng.Skipped(), naive.Engine().Evaluated() * uint64(eng.Cycle())}
}

type idleDriver struct{}

func (idleDriver) Tick(int64) {}

// checkSkipAccounting requires a sharded run to account for every
// evaluation the always-tick engine would make as made or skipped, and
// returns the skipped share.
func checkSkipAccounting(t *testing.T, w engineWork) float64 {
	t.Helper()
	if w.evaluated+w.skipped != w.alwaysTick {
		t.Errorf("evaluated %d + skipped %d = %d, always-tick total %d",
			w.evaluated, w.skipped, w.evaluated+w.skipped, w.alwaysTick)
	}
	return float64(w.skipped) / float64(w.alwaysTick)
}

// layerWork runs the cell core.RunLayer(8, 8, layer, mode, {Rounds: 1})
// runs, on a network the test can ask for its engine counters, and returns
// them with the run's length.
func layerWork(t *testing.T, layer cnn.LayerConfig, mode systolic.Mode, shards int) (engineWork, int64) {
	t.Helper()
	cfg := noc.DefaultConfig(8, 8)
	cfg.Shards = shards
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctl, err := systolic.NewController(nw, systolic.Config{Layer: layer, Mode: mode, TMAC: 5, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(nw, ctl, 50_000_000); err != nil {
		t.Fatal(err)
	}
	return workOf(t, nw, 1), ctl.Result().TotalCycles
}

// TestShardBoundaryLinksWakeAcrossTheCut pins how the links that cross a
// shard boundary sleep (DESIGN.md §9), on a 4-row fabric cut between rows 1
// and 2. The 2*Cols links that cross the cut are committed in halves, each
// woken from the shard at the other end through a remote handle; every other
// link is registered whole with its own handle. An idle fabric evaluates
// nothing at all, the staged dispatcher included, and traffic across the cut
// wakes exactly what carries it.
func TestShardBoundaryLinksWakeAcrossTheCut(t *testing.T) {
	const rows, cols = 4, 5
	cfg := noc.DefaultConfig(rows, cols)
	cfg.EastSinks = false
	cfg.Shards = 2
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eng := nw.Engine()
	delivered := 0
	for id := 0; id < rows*cols; id++ {
		nw.NIC(topology.NodeID(id)).OnReceive(func(*nic.ReceivedPacket) { delivered++ })
	}

	// perCycle steps n cycles and returns the evaluations each took.
	perCycle := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			before := eng.Evaluated()
			eng.Step()
			out[i] = eng.Evaluated() - before
		}
		return out
	}
	total := perCycle(1)[0] // everything is awake in the first cycle
	if total < 4*cols+1 {
		t.Fatalf("first cycle evaluated %d components, fewer than the %d boundary halves and the dispatcher", total, 4*cols+1)
	}
	for i, n := range perCycle(20) {
		if n != 0 {
			t.Fatalf("idle cycle %d evaluated %d components, want none", i+1, n)
		}
	}
	if got, want := eng.Evaluated()+eng.Skipped(), 21*total; got != want {
		t.Errorf("Evaluated()+Skipped() = %d after 21 cycles, want %d", got, want)
	}

	// Every node sends to the node diagonally opposite: all rows and
	// columns carry traffic, across the cut and inside both shards. A link
	// half whose wake did not cross the cut, or a same-shard link without a
	// handle, would sleep through its flits and the packets would never
	// arrive.
	for id := 0; id < rows*cols; id++ {
		nw.NIC(topology.NodeID(id)).SendUnicastN(0, topology.NodeID(rows*cols-1-id), 2)
	}
	if busy := perCycle(3); busy[2] == 0 {
		t.Error("a cycle with traffic evaluated nothing")
	}
	if _, err := eng.RunUntil(nw.Quiescent, 10_000); err != nil {
		t.Fatal(err)
	}
	if delivered != rows*cols {
		t.Fatalf("%d of %d packets delivered", delivered, rows*cols)
	}
	for i, n := range perCycle(10)[2:] {
		if n != 0 {
			t.Fatalf("drained cycle %d evaluated %d components, want none", i, n)
		}
	}
}
