package main

import (
	"bytes"
	"fmt"
	"math"
	"os"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/experiments"
	"gathernoc/internal/noc"
	"gathernoc/internal/power"
	"gathernoc/internal/systolic"
)

// paperSize fixes the paper-reproduction workloads.
type paperSize struct {
	// rounds is the systolic rounds simulated per layer run.
	rounds int
	// warmPasses is how many cached passes make one paper-warm op.
	warmPasses int
}

// paperMesh is the fabric the full-model runs use.
const paperMesh = 8

// paperCell is one gather-vs-RU comparison the paper artifacts simulate.
type paperCell struct {
	mesh  int
	layer cnn.LayerConfig
}

// paperCells enumerates, in order, every comparison cell paperPass
// simulates: Table II, Figs. 7–10 and both full models. Duplicates stay
// in: without a cache the experiments resimulate them.
func paperCells() []paperCell {
	var cells []paperCell
	grid := func(layers []cnn.LayerConfig, meshes ...int) {
		for _, mesh := range meshes {
			for _, l := range layers {
				cells = append(cells, paperCell{mesh, l})
			}
		}
	}
	grid(cnn.AlexNetConvLayers(), 8)           // Table II
	grid(cnn.AlexNetConvLayers(), 8, 16)       // Fig. 7
	grid(cnn.VGG16SelectedConvLayers(), 8, 16) // Fig. 8
	grid(cnn.AlexNetConvLayers(), 8, 16)       // Fig. 9
	grid(cnn.VGG16SelectedConvLayers(), 8, 16) // Fig. 10
	grid(cnn.AlexNetAllLayers(), paperMesh)    // full AlexNet
	grid(cnn.VGG16AllLayers(), paperMesh)      // full VGG-16
	return cells
}

// paperPass produces what `experiments -exp table2,fig7,…,fullmodel,
// fullvgg` prints: every artifact computed and rendered once. It returns
// the rendered bytes and files the simulated results in o.
func paperPass(o *observation, opts experiments.Options, tr *tracer) []byte {
	var out bytes.Buffer
	render := func(s string) {
		out.WriteString(s)
	}
	fail := func(what string, err error) []byte {
		o.failf("%s: %v", what, err)
		return nil
	}

	tr.begin("experiments.Table2")
	t2, err := experiments.Table2(opts)
	tr.end()
	if err != nil {
		return fail("table2", err)
	}
	var figs [4][]experiments.ImprovementRow
	for i, f := range []struct {
		span string
		run  func(experiments.Options) ([]experiments.ImprovementRow, error)
	}{
		{"experiments.Fig7", experiments.Fig7},
		{"experiments.Fig8", experiments.Fig8},
		{"experiments.Fig9", experiments.Fig9},
		{"experiments.Fig10", experiments.Fig10},
	} {
		tr.begin(f.span)
		figs[i], err = f.run(opts)
		tr.end()
		if err != nil {
			return fail(f.span, err)
		}
	}
	tr.begin("experiments.FullAlexNet")
	alex, err := experiments.FullAlexNet(paperMesh, opts)
	tr.end()
	if err != nil {
		return fail("fullalexnet", err)
	}
	tr.begin("experiments.FullVGG16")
	vgg, err := experiments.FullVGG16(paperMesh, opts)
	tr.end()
	if err != nil {
		return fail("fullvgg16", err)
	}

	tr.begin("experiments.Render")
	render(experiments.RenderTable2(t2))
	render(experiments.RenderImprovements("Fig. 7: total latency improvement, AlexNet", "% improvement", figs[0]))
	render(experiments.RenderImprovements("Fig. 8: total latency improvement, VGG-16", "% improvement", figs[1]))
	render(experiments.RenderImprovements("Fig. 9: NoC power improvement, AlexNet", "% improvement", figs[2]))
	render(experiments.RenderImprovements("Fig. 10: NoC power improvement, VGG-16", "% improvement", figs[3]))
	render(experiments.RenderModel(alex))
	render(experiments.RenderModel(vgg))
	tr.end()

	o.simCycles = float64(alex.GatherTotalCycles + vgg.GatherTotalCycles)
	o.energyPJ = alex.GatherTotalPJ + vgg.GatherTotalPJ
	var gap float64
	for _, r := range t2 {
		gap += math.Abs(r.Estimated - r.Simulated)
	}
	o.counts["analytic.table2_gap_pp"] = gap / float64(len(t2))
	o.counts["core.latency_improv_pct_mean"] = meanImprovement(figs[0], figs[1])
	o.counts["core.power_improv_pct_mean"] = meanImprovement(figs[2], figs[3])
	o.counts["core.cells"] = float64(len(t2) + len(figs[0]) + len(figs[1]) + len(figs[2]) + len(figs[3]) +
		len(alex.Layers) + len(vgg.Layers))
	return out.Bytes()
}

func meanImprovement(figs ...[]experiments.ImprovementRow) float64 {
	var sum float64
	n := 0
	for _, rows := range figs {
		for _, r := range rows {
			sum += r.Improvement
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// experimentTimes files the per-artifact times of the traced paperPass
// calls and returns their sum.
func experimentTimes(o *observation, tr *tracer) float64 {
	var sum float64
	for metric, span := range map[string]string{
		"experiments.table2_s":      "experiments.Table2",
		"experiments.fig7_s":        "experiments.Fig7",
		"experiments.fig8_s":        "experiments.Fig8",
		"experiments.fig9_s":        "experiments.Fig9",
		"experiments.fig10_s":       "experiments.Fig10",
		"experiments.fullalexnet_s": "experiments.FullAlexNet",
		"experiments.fullvgg16_s":   "experiments.FullVGG16",
		"experiments.render_s":      "experiments.Render",
	} {
		o.times[metric] = tr.total(span)
		sum += o.times[metric]
	}
	return sum
}

// runPaperCold is one op of paper-cold: every artifact simulated from
// scratch on the sweep pool, as a reader reproducing the paper runs it.
// want, when non-nil, is the output an earlier op produced; the
// simulator is deterministic, so any difference is a failure.
func runPaperCold(sz paperSize, want []byte, tr *tracer) (*observation, []byte) {
	o := newObservation()
	opts := experiments.Options{Rounds: sz.rounds}
	out := paperPass(o, opts, tr)
	if len(o.fails) > 0 {
		return o, nil
	}
	if want != nil && !bytes.Equal(out, want) {
		o.failf("rendered output differs from the warm-up op's")
	}
	if tr == nil {
		return o, out
	}
	parallelS := experimentTimes(o, tr)

	// Probes: the same artifacts on one worker, then every cell through
	// the layers under experiments, which the package's API keeps out of
	// sight.
	tr.begin("bench.probe")
	defer tr.end()
	serial := newObservation()
	opts.Workers = 1
	tr.begin("experiments.serial")
	serialOut := paperPass(serial, opts, nil)
	tr.end()
	o.fails = append(o.fails, serial.fails...)
	if !bytes.Equal(serialOut, out) {
		o.failf("rendered output depends on the worker count")
	}
	o.times["experiments.serial_s"] = tr.total("experiments.serial")
	if parallelS > 0 {
		o.times["experiments.sweep_speedup"] = o.times["experiments.serial_s"] / parallelS
	}
	probeCells(o, tr, core.Options{Rounds: sz.rounds})
	return o, out
}

// probeCells runs every paper cell through core.RunLayer in both
// collection modes and, beside each, the public calls RunLayer makes
// itself: building the network and computing power. It files the router,
// NIC and systolic statistics the experiments package does not return.
func probeCells(o *observation, tr *tracer, opts core.Options) {
	var total power.Events
	var packets, flits, piggyback, selfInit uint64
	var payloadErrors int
	shareSum := map[systolic.Mode]float64{}
	cells := paperCells()
	builds := 0
	var buildAllocs uint64
	for _, c := range cells {
		for _, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
			tr.begin("core.RunLayer")
			rep, err := core.RunLayer(c.mesh, c.mesh, c.layer, mode, opts)
			tr.end()
			if err != nil {
				o.failf("core.RunLayer %s %dx%d %s: %v", c.layer.Name, c.mesh, c.mesh, mode, err)
				return
			}
			r := rep.Result
			total = total.Add(rep.Events)
			packets += r.Activity.PacketsSent
			flits += r.Activity.FlitsSent
			piggyback += r.PiggybackAcks
			selfInit += r.SelfInitiatedGathers
			payloadErrors += r.PayloadErrors
			if mean := r.RoundCycles.Mean(); mean > 0 {
				shareSum[mode] += r.CollectionCycles.Mean() / mean
			}

			tr.begin("power.Compute")
			power.Compute(rep.Events, power.DefaultCoefficients(), r.MeasuredCycles, 1.0)
			tr.end()

			b0 := mallocs()
			tr.begin("noc.New")
			nw, err := noc.New(rep.NetworkConfig)
			tr.end()
			buildAllocs += mallocs() - b0
			if err != nil {
				o.failf("noc.New: %v", err)
				return
			}
			nw.Close()
			builds++
		}
	}
	activityCounts(o, total, packets, flits)
	o.counts["nic.piggyback_share"] = share(piggyback, piggyback+selfInit)
	o.counts["systolic.payload_errors"] = float64(payloadErrors)
	o.counts["systolic.collection_share_ru"] = shareSum[systolic.RepetitiveUnicast] / float64(len(cells))
	o.counts["systolic.collection_share_gather"] = shareSum[systolic.GatherMode] / float64(len(cells))
	o.counts["noc.builds"] = float64(builds)
	runs := tr.durations("core.RunLayer")
	o.times["core.run_layer_s_p50"] = runs.Percentile(50)
	o.times["core.run_layer_s_max"] = runs.Max()
	o.times["noc.build_s"] = tr.total("noc.New")
	o.times["noc.build_allocs"] = float64(buildAllocs)
	o.times["power.compute_s"] = tr.total("power.Compute")
	if payloadErrors != 0 {
		o.failf("%d payload errors", payloadErrors)
	}
}

// primeCache simulates every paper artifact once through a cache over a
// fresh directory under dir, as the first `experiments -cachedir` run
// does, and returns the cache directory with the bytes that run rendered.
func primeCache(sz paperSize, dir string) (string, []byte, error) {
	cacheDir, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return "", nil, err
	}
	cache, err := experiments.NewCache(cacheDir)
	if err != nil {
		return "", nil, err
	}
	o := newObservation()
	out := paperPass(o, experiments.Options{Rounds: sz.rounds, Cache: cache}, nil)
	if len(o.fails) > 0 {
		return "", nil, fmt.Errorf("priming the cache: %v", o.fails)
	}
	return cacheDir, out, nil
}

// runPaperWarm is one op of paper-warm: sz.warmPasses reruns of the
// paper artifacts, each through a fresh cache over the primed directory,
// as repeated `experiments -cachedir` invocations are. Every cell must be
// a hit and every pass must render the bytes the priming run rendered.
func runPaperWarm(sz paperSize, cacheDir string, want []byte, tr *tracer) *observation {
	o := newObservation()
	var stats experiments.CacheStats
	for pass := 0; pass < sz.warmPasses; pass++ {
		cache, err := experiments.NewCache(cacheDir)
		if err != nil {
			o.failf("cache: %v", err)
			return o
		}
		po := newObservation()
		out := paperPass(po, experiments.Options{Rounds: sz.rounds, Cache: cache}, tr)
		o.fails = append(o.fails, po.fails...)
		if len(o.fails) > 0 {
			return o
		}
		if !bytes.Equal(out, want) {
			o.failf("pass %d: cached output differs from the simulated output", pass)
			return o
		}
		o.simCycles, o.energyPJ = po.simCycles, po.energyPJ
		for k, v := range po.counts {
			o.counts[k] = v
		}
		s := cache.Stats()
		stats.Hits += s.Hits
		stats.Misses += s.Misses
		stats.Stale += s.Stale
		stats.BytesRead += s.BytesRead
	}
	o.counts["experiments.cache_hits"] = float64(stats.Hits)
	o.counts["experiments.cache_misses"] = float64(stats.Misses)
	o.counts["experiments.cache_stale"] = float64(stats.Stale)
	o.counts["experiments.cache_hit_share"] = share(stats.Hits, stats.Hits+stats.Misses)
	o.counts["experiments.cache_bytes_read"] = float64(stats.BytesRead)
	if stats.Misses != 0 || stats.Stale != 0 {
		o.failf("%d cache misses, %d stale entries on a primed cache", stats.Misses, stats.Stale)
	}
	if tr == nil {
		return o
	}
	experimentTimes(o, tr)

	// Probe: the two public calls a cache lookup is keyed by, once per
	// cell and pass.
	tr.begin("bench.probe")
	defer tr.end()
	opts := core.Options{Rounds: sz.rounds}
	cells := paperCells()
	for pass := 0; pass < sz.warmPasses; pass++ {
		for _, c := range cells {
			tr.begin("core.ComparisonKey")
			_, err := core.ComparisonKey(c.mesh, c.mesh, c.layer, opts)
			tr.end()
			if err != nil {
				o.failf("core.ComparisonKey: %v", err)
				return o
			}
			cfg := noc.DefaultConfig(c.mesh, c.mesh)
			tr.begin("noc.Config.Hash")
			cfg.Hash()
			tr.end()
		}
	}
	o.times["core.key_s"] = tr.total("core.ComparisonKey")
	o.times["noc.hash_s"] = tr.total("noc.Config.Hash")
	return o
}
