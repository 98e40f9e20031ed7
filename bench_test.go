// Micro-benchmarks of single mechanisms and ablation points that the
// repository benchmark (bench/, BENCHMARK.json) has no workload for: one row
// collection under gather and under in-network accumulation, the
// accumulation-phase scheme comparison, the δ and buffer-transaction-cost
// ablation points, one layer round and the Fig. 1 hop count. What a user runs
// end to end (the paper artifacts cold and warm, engine stepping and scaling,
// telemetry and fault overhead, pipelines, multi-job batches, collectives,
// checkpoints) is measured by bench/ and nowhere else.
//
//	go test -run '^$' -bench . -benchtime 1x
package gathernoc

import (
	"fmt"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/experiments"
	"gathernoc/internal/noc"
	"gathernoc/internal/systolic"
	"gathernoc/internal/traffic"
)

var benchOpts = core.Options{Rounds: 1}

// BenchmarkFig1 regenerates the Fig. 1 hop-count example.
func BenchmarkFig1(b *testing.B) {
	var hops int
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1()
		hops = r.UnicastHops - r.GatherHops
	}
	b.ReportMetric(float64(hops), "hops-saved")
}

// BenchmarkAblationDelta sweeps the flat δ timeout (AlexNet Conv3, 8x8).
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []int{0, 5, 20} {
		delta := delta
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			var self float64
			for i := 0; i < b.N; i++ {
				opts := benchOpts
				opts.MutateNetwork = func(c *noc.Config) { c.Delta = int64(delta) }
				opts.MutateSystolic = func(s *systolic.Config) { s.FlatDelta = true }
				layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
				cmp, err := core.CompareLayer(8, 8, layer, opts)
				if err != nil {
					b.Fatal(err)
				}
				self = float64(cmp.Gather.Result.SelfInitiatedGathers)
			}
			b.ReportMetric(self, "self-initiated")
		})
	}
}

// BenchmarkAblationSinkCost sweeps the per-packet buffer transaction cost
// (the DESIGN.md §3 substitution).
func BenchmarkAblationSinkCost(b *testing.B) {
	for _, cost := range []int{0, 5, 10} {
		cost := cost
		b.Run(fmt.Sprintf("cost=%d", cost), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				opts := benchOpts
				opts.MutateNetwork = func(c *noc.Config) { c.SinkPacketOverhead = int64(cost) }
				layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
				cmp, err := core.CompareLayer(8, 8, layer, opts)
				if err != nil {
					b.Fatal(err)
				}
				lat = cmp.LatencyImprovementPct
			}
			b.ReportMetric(lat, "latency-improv-%")
		})
	}
}

// BenchmarkINAComparison regenerates the accumulation-phase comparison
// (unicast vs gather vs in-network accumulation) on the 8x8 mesh through
// the sweep harness, reporting INA's sink-flit advantage over gather.
func BenchmarkINAComparison(b *testing.B) {
	var gatherFlits, inaFlits float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.INAComparison(experiments.Options{Rounds: 1, Meshes: []int{8}})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case "gather":
				gatherFlits = r.SinkFlitsPerRow
			case "ina":
				inaFlits = r.SinkFlitsPerRow
			}
		}
	}
	b.ReportMetric(gatherFlits, "gather-sinkflits/row")
	b.ReportMetric(inaFlits, "ina-sinkflits/row")
}

// benchRow runs one row collection of an 8x8 mesh under the given
// scheme: every PE of row 0 releases its payload through noc.Network.Submit,
// the sender side the controllers use.
func benchRow(b *testing.B, scheme noc.CollectScheme) {
	for i := 0; i < b.N; i++ {
		cfg := noc.DefaultConfig(8, 8)
		cfg.EnableINA = true
		nw, err := noc.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		line := nw.RowLine(0, true)
		for col, id := range line.Nodes {
			p := flitPayload(uint64(col), id, line.Target)
			p.Ops = 1
			nw.Submit(&line, col, scheme, 0, p)
		}
		if _, err := nw.RunUntilQuiescent(100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkINARowReduction measures one in-network row reduction: the
// microbenchmark version of the INA mechanism, the accumulate twin of
// BenchmarkGatherRow.
func BenchmarkINARowReduction(b *testing.B) { benchRow(b, noc.CollectINA) }

// BenchmarkGatherRow measures one gather row collection on the NoC: the
// microbenchmark version of the paper's mechanism.
func BenchmarkGatherRow(b *testing.B) { benchRow(b, noc.CollectGather) }

// BenchmarkLayerRound measures one output-stationary round of AlexNet Conv3
// on the 8x8 mesh under gather collection, the unit every paper artifact is
// made of: C·R·R + T_MAC cycles of compute with a silent fabric, which the
// engine jumps over (sim.Handle.WakeAt), then the many-to-one burst it
// steps through. The always-tick variant steps through all of it. Each
// iteration builds its fabric.
func BenchmarkLayerRound(b *testing.B) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	for _, alwaysTick := range []bool{false, true} {
		name := "timed-sleep"
		if alwaysTick {
			name = "always-tick"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = layerRun(b, layer, systolic.GatherMode, alwaysTick).MeasuredCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkEvaluationCost measures what one component evaluation and one
// link flit cost as the fabric grows, at equal channel load: uniform
// traffic of two-flit packets on a sequential n×n mesh at a rate that
// scales as 1/n (8×8 @0.08 … 32×32 @0.02), after a warm-up that fills the
// queues. An op is one cycle. ns/eval is the measured time over the
// components the engine evaluated (sim.Engine.Evaluated), ns/linkflit the
// same time over the flits the links carried: with the load per channel
// held, a rise along the sizes is the cost of the fabric's state leaving
// the cache, not of more work. -short cuts the warm-up to a few cycles.
func BenchmarkEvaluationCost(b *testing.B) {
	for _, c := range []struct {
		n    int
		rate float64
	}{{8, 0.08}, {16, 0.04}, {22, 0.029}, {32, 0.02}} {
		b.Run(fmt.Sprintf("%dx%d", c.n, c.n), func(b *testing.B) {
			nw, err := noc.New(noc.DefaultConfig(c.n, c.n))
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
				Pattern:       traffic.UniformRandom{Nodes: c.n * c.n},
				InjectionRate: c.rate,
				PacketFlits:   2,
				Measure:       1 << 40, // never stop injecting
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			eng := nw.Engine()
			eng.AddTicker(gen)
			warmup := int64(1000)
			if testing.Short() {
				warmup = 10
			}
			eng.RunUntil(never, warmup)
			evals, flits := eng.Evaluated(), nw.Activity().LinkFlits
			b.ResetTimer()
			eng.RunUntil(never, int64(b.N))
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(max(eng.Evaluated()-evals, 1)), "ns/eval")
			b.ReportMetric(ns/float64(max(nw.Activity().LinkFlits-flits, 1)), "ns/linkflit")
		})
	}
}
