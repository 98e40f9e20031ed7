// Command benchreport measures the repository's headline performance
// benchmarks — engine stepping (naive always-tick vs activity-tracked
// sleep/wake) and the parallel Fig. 7 sweep (serial vs all cores) — and
// writes the results as machine-readable JSON, continuing the repository's
// performance trajectory (BENCH_PR2.json, BENCH_PR3.json, ...).
//
// Usage:
//
//	go run ./cmd/benchreport                     # print JSON to stdout
//	go run ./cmd/benchreport -out BENCH_PR3.json # regenerate the pinned file
//	go run ./cmd/benchreport -baseline BENCH_PR2.json -out BENCH_PR3.json
//
// Each benchmark entry records the GOMAXPROCS it actually ran at, and the
// harness pins it per family rather than inheriting the environment:
// single-simulation benchmarks (EngineStepping, the pipeline and batch
// runs) are pinned to GOMAXPROCS(1) so scheduler noise and background
// goroutines cannot perturb a measurement that is semantically serial,
// while the scaling families (SweepFig7/parallel, EngineScaling) are
// forced to all cores even when the process was started with
// GOMAXPROCS=1, so they measure the worker pool rather than the
// environment (the PR2 snapshot was taken at GOMAXPROCS=1, where
// "parallel" silently degenerated to serial). EngineScaling entries also
// record num_cpu: on a single-core host the sharded engine still
// verifies, but cycles/sec speedup is bounded by the hardware and the
// recorded numbers must be read against that bound.
//
// With -baseline pointing at a previous snapshot, every matching
// benchmark gains a vs_baseline block with the ns/op, allocs/op and
// bytes/op deltas in percent (negative = improvement).
//
// The same workloads back BenchmarkEngineStepping and BenchmarkSweepFig7
// in bench_test.go; this command exists so a single `go run` regenerates
// the committed numbers without parsing `go test -bench` output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/collective"
	"gathernoc/internal/experiments"
	"gathernoc/internal/fault"
	"gathernoc/internal/noc"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// Delta compares one measurement against the same benchmark in the
// baseline snapshot, in percent of the baseline (negative = improvement).
type Delta struct {
	NsPct     float64 `json:"ns_pct"`
	AllocsPct float64 `json:"allocs_pct"`
	BytesPct  float64 `json:"bytes_pct"`
}

// Result is one benchmark measurement.
type Result struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// GOMAXPROCS records the parallelism this benchmark ran at (the
	// report-level field records the process default).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Metrics carries benchmark-specific extras (cycles simulated,
	// skipped-evaluation percentage, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// VsBaseline holds the deltas against the -baseline snapshot.
	VsBaseline *Delta `json:"vs_baseline,omitempty"`
}

// Report is the file layout of BENCH_PR2.json and successors.
type Report struct {
	GeneratedBy string   `json:"generated_by"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Baseline    string   `json:"baseline,omitempty"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	out := fs.String("out", "", "write the JSON report to this file (default: stdout)")
	baseline := fs.String("baseline", "", "previous snapshot to diff against (e.g. BENCH_PR2.json); missing file is not an error")
	cacheDir := fs.String("cachedir", "", "back the SweepFig7/cached benchmark with this on-disk cache directory (default: in-memory)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report := Report{
		GeneratedBy: "go run ./cmd/benchreport",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	// Engine stepping: the BenchmarkEngineStepping grid. Single-network
	// sequential runs, pinned to GOMAXPROCS(1) for a noise-free serial
	// measurement.
	prevProcs := runtime.GOMAXPROCS(1)
	for _, tc := range []struct {
		name   string
		always bool
		rate   float64
	}{
		{"EngineStepping/naive/low", true, 0.005},
		{"EngineStepping/activity/low", false, 0.005},
		{"EngineStepping/naive/high", true, 0.30},
		{"EngineStepping/activity/high", false, 0.30},
	} {
		var cycles int64
		var evaluated, skipped uint64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := noc.DefaultConfig(8, 8)
				cfg.EastSinks = false
				cfg.AlwaysTick = tc.always
				nw, err := noc.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
					Pattern:       traffic.UniformRandom{Nodes: 64},
					InjectionRate: tc.rate,
					PacketFlits:   2,
					Warmup:        100,
					Measure:       4900,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := gen.Run(1_000_000)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
				evaluated = nw.Engine().Evaluated()
				skipped = nw.Engine().Skipped()
			}
		})
		metrics := map[string]float64{"cycles": float64(cycles)}
		if total := evaluated + skipped; total > 0 {
			metrics["skipped_pct"] = float64(skipped) / float64(total) * 100
		}
		report.Benchmarks = append(report.Benchmarks, toResult(tc.name, r, metrics))
	}
	runtime.GOMAXPROCS(prevProcs)

	// Engine scaling: one large saturated simulation sharded across
	// cores (BenchmarkEngineScaling, DESIGN.md §9), at full machine
	// parallelism. cycles/sec is the headline metric; speedup_vs_1shard
	// is measured against the shards=1 cell of the same mesh, and
	// num_cpu records the hardware bound the speedup must be read
	// against (1 core ⇒ parity is the ceiling).
	{
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		shardGrid := []int{1, 2, 4}
		if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
			shardGrid = append(shardGrid, n)
		}
		for _, mesh := range []int{32, 64} {
			var baseRate float64
			for _, shards := range shardGrid {
				var cycles int64
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						cfg := noc.DefaultConfig(mesh, mesh)
						cfg.EastSinks = false
						cfg.Shards = shards
						nw, err := noc.New(cfg)
						if err != nil {
							b.Fatal(err)
						}
						gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
							Pattern:       traffic.UniformRandom{Nodes: mesh * mesh},
							InjectionRate: 0.02,
							PacketFlits:   2,
							Warmup:        100,
							Measure:       900,
							Seed:          1,
						})
						if err != nil {
							b.Fatal(err)
						}
						res, err := gen.Run(1_000_000)
						if err != nil {
							b.Fatal(err)
						}
						cycles = res.Cycles
						nw.Close()
					}
				})
				rate := float64(cycles) / (float64(r.NsPerOp()) / 1e9)
				if shards == 1 {
					baseRate = rate
				}
				metrics := map[string]float64{
					"cycles":         float64(cycles),
					"cycles_per_sec": rate,
					"num_cpu":        float64(runtime.NumCPU()),
				}
				if baseRate > 0 {
					metrics["speedup_vs_1shard"] = rate / baseRate
				}
				report.Benchmarks = append(report.Benchmarks,
					toResult(fmt.Sprintf("EngineScaling/%dx%d/shards=%d", mesh, mesh, shards), r, metrics))
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	// Fig. 7 sweep: serial vs all-cores, as in BenchmarkSweepFig7. The
	// parallel case forces GOMAXPROCS to the machine's core count so the
	// worker pool can actually run concurrently.
	for _, tc := range []struct {
		name    string
		workers int
		procs   int
	}{
		{"SweepFig7/serial", 1, runtime.GOMAXPROCS(0)},
		{"SweepFig7/parallel", 0, runtime.NumCPU()},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig7(experiments.Options{Rounds: 1, Workers: tc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
		runtime.GOMAXPROCS(prev)
		res := toResult(tc.name, r, nil)
		res.GOMAXPROCS = tc.procs
		report.Benchmarks = append(report.Benchmarks, res)
	}

	// Cached sweep: the same Fig. 7 sweep served from a warm result cache
	// (BenchmarkSweepCached) — the memoization headline. One cold pass
	// fills the cache, then every measured pass replays from it; hits and
	// the speedup against the parallel uncached leg are the metrics.
	{
		cache, err := experiments.NewCache(*cacheDir)
		if err != nil {
			return err
		}
		warmOpts := experiments.Options{Rounds: 1, Cache: cache}
		if _, err := experiments.Fig7(warmOpts); err != nil {
			return err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig7(warmOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
		s := cache.Stats()
		var uncachedNs int64
		for _, br := range report.Benchmarks {
			if br.Name == "SweepFig7/parallel" {
				uncachedNs = br.NsPerOp
			}
		}
		metrics := map[string]float64{
			"cache_hits":   float64(s.Hits),
			"cache_misses": float64(s.Misses),
		}
		if r.NsPerOp() > 0 && uncachedNs > 0 {
			metrics["speedup_vs_uncached"] = float64(uncachedNs) / float64(r.NsPerOp())
		}
		report.Benchmarks = append(report.Benchmarks, toResult("SweepFig7/cached", r, metrics))
	}

	// The remaining families are single sequential simulations; pin them
	// to GOMAXPROCS(1) like EngineStepping.
	prevProcs = runtime.GOMAXPROCS(1)

	// INA comparison: the accumulation-phase sweep added with the INA
	// subsystem, pinning its cost alongside the headline benchmarks.
	{
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.INAComparison(experiments.Options{Rounds: 1, Meshes: []int{8}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Benchmarks = append(report.Benchmarks, toResult("INAComparison/8x8", r, nil))
	}

	// Whole-model pipeline: the workload-scheduler composition of all
	// AlexNet layers on one fabric (BenchmarkPipelineAlexNet), barrier vs
	// double-buffered overlap, with the simulated makespan as the
	// workload-level metric.
	for _, tc := range []struct {
		name    string
		overlap bool
	}{
		{"PipelineAlexNet/barrier", false},
		{"PipelineAlexNet/overlap", true},
	} {
		var makespan int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw, err := noc.New(noc.DefaultConfig(8, 8))
				if err != nil {
					b.Fatal(err)
				}
				job, _, err := workload.NewPipelineJob(nw, "alexnet", workload.PipelineConfig{
					Layers:  cnn.AlexNetAllLayers(),
					Scheme:  traffic.CollectGather,
					Rounds:  1,
					Overlap: tc.overlap,
				})
				if err != nil {
					b.Fatal(err)
				}
				s, err := workload.New(nw, []workload.Job{job})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(10_000_000)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Jobs[0].Time()
			}
		})
		report.Benchmarks = append(report.Benchmarks, toResult(tc.name,
			r, map[string]float64{"makespan_cycles": float64(makespan)}))
	}

	// Multi-job batch: four inferences plus background traffic sharing
	// the fabric (BenchmarkMultiJob), with the batch makespan and the
	// max/min job slowdown as metrics.
	{
		var cycles int64
		var slowdown float64
		oracleErrs := 0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := experiments.MultiJob(experiments.Options{Rounds: 1, Jobs: 4})
				if err != nil {
					b.Fatal(err)
				}
				cycles = rep.Cycles
				slowdown = rep.MaxMinSlowdown
				oracleErrs += rep.OracleErrors
			}
		})
		if oracleErrs != 0 {
			// A snapshot must never embed numbers from a run whose row
			// reductions failed verification.
			return fmt.Errorf("multijob benchmark: %d reduction oracle errors", oracleErrs)
		}
		report.Benchmarks = append(report.Benchmarks, toResult("MultiJob/4+background", r,
			map[string]float64{"batch_cycles": float64(cycles), "maxmin_slowdown": slowdown}))
	}
	// Telemetry overhead: the identical 8x8 uniform-traffic run dark and
	// with the CLI's default observability configuration (DESIGN.md §11).
	// The "on" entry records overhead_pct against the "off" entry of the
	// same snapshot; the acceptance bar is < 10%. The 10K-cycle window
	// (~40 epochs) matches bench_test.go's runTelemetryOverheadPoint so
	// the one-time event-buffer preallocation amortizes as in real
	// observation windows and the pair prices the recording path.
	{
		var offNs int64
		for _, tc := range []struct {
			name string
			tcfg *telemetry.Config
		}{
			{"TelemetryOverhead/off", nil},
			{"TelemetryOverhead/on", func() *telemetry.Config { c := telemetry.DefaultConfig(); return &c }()},
		} {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := noc.DefaultConfig(8, 8)
					cfg.EastSinks = false
					cfg.Telemetry = tc.tcfg
					nw, err := noc.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
						Pattern:       traffic.UniformRandom{Nodes: 64},
						InjectionRate: 0.05,
						PacketFlits:   2,
						Warmup:        100,
						Measure:       9900,
						Seed:          1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := gen.Run(1_000_000); err != nil {
						b.Fatal(err)
					}
					nw.Close()
				}
			})
			var metrics map[string]float64
			if tc.tcfg == nil {
				offNs = r.NsPerOp()
			} else if offNs > 0 {
				metrics = map[string]float64{
					"overhead_pct": (float64(r.NsPerOp()) - float64(offNs)) / float64(offNs) * 100,
				}
			}
			report.Benchmarks = append(report.Benchmarks, toResult(tc.name, r, metrics))
		}
	}
	// Fault-injection overhead: the identical run fault-free and with a 1%
	// transient drop schedule plus the full recovery stack (DESIGN.md §12).
	// The "off" leg is the configuration every published number uses — its
	// nil-check cost against the previous snapshot is the < 2% acceptance
	// bar — and the "on" entry records overhead_pct against it, pricing
	// per-link fault decisions, credit flushers, fault-aware ejectors and
	// the reliability hub together.
	{
		var offNs int64
		for _, tc := range []struct {
			name string
			fcfg *fault.Config
		}{
			{"FaultOverhead/off", nil},
			{"FaultOverhead/on", &fault.Config{Seed: 1, DropRate: 0.01, CorruptRate: 0.0025}},
		} {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := noc.DefaultConfig(8, 8)
					cfg.EastSinks = false
					cfg.Faults = tc.fcfg
					nw, err := noc.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
						Pattern:       traffic.UniformRandom{Nodes: 64},
						InjectionRate: 0.05,
						PacketFlits:   2,
						Warmup:        100,
						Measure:       9900,
						Seed:          1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := gen.Run(1_000_000); err != nil {
						b.Fatal(err)
					}
					nw.Close()
				}
			})
			var metrics map[string]float64
			if tc.fcfg == nil {
				offNs = r.NsPerOp()
			} else if offNs > 0 {
				metrics = map[string]float64{
					"overhead_pct": (float64(r.NsPerOp()) - float64(offNs)) / float64(offNs) * 100,
				}
			}
			report.Benchmarks = append(report.Benchmarks, toResult(tc.name, r, metrics))
		}
	}
	runtime.GOMAXPROCS(prevProcs)

	// Mesh-wide collectives: one 8x8 all-reduce per iteration under each
	// transport (BenchmarkCollectives), pinned serial like the other
	// single-simulation families. round_cycles and root_flits are the
	// headline metrics: the tree exists to amortize the root's ejection
	// serialization, and the fused variant to shrink it further.
	prevProcs = runtime.GOMAXPROCS(1)
	for _, alg := range []collective.Algorithm{collective.AlgTree, collective.AlgFlat, collective.AlgFused} {
		alg := alg
		var round float64
		var rootFlits uint64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := noc.DefaultConfig(8, 8)
				if alg == collective.AlgFused {
					cfg.EnableINA = true
				}
				nw, err := noc.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ctl, err := collective.NewController(nw, collective.Config{
					Op: collective.AllReduce, Algorithm: alg, Rounds: 2, ComputeLatency: 10,
				})
				if err != nil {
					nw.Close()
					b.Fatal(err)
				}
				res, err := ctl.Run(50_000_000)
				nw.Close()
				if err != nil {
					b.Fatal(err)
				}
				if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
					b.Fatalf("%d oracle / %d broadcast errors", res.OracleErrors, res.BroadcastErrors)
				}
				round = res.RoundCycles.Mean()
				rootFlits = res.RootFlits
			}
		})
		report.Benchmarks = append(report.Benchmarks, toResult("Collectives/"+alg.String(), r, map[string]float64{
			"round_cycles": round,
			"root_flits":   float64(rootFlits),
		}))
	}
	runtime.GOMAXPROCS(prevProcs)

	if *baseline != "" {
		if err := applyBaseline(&report, *baseline); err != nil {
			return err
		}
	}

	var sink io.Writer = w
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	enc := json.NewEncoder(sink)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(w, "wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
	}
	return nil
}

// applyBaseline annotates every benchmark that also appears in the
// baseline snapshot with its percentage deltas. A missing baseline file is
// tolerated (first snapshot in a fresh clone); a malformed one is not.
func applyBaseline(report *Report, path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	byName := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	report.Baseline = path
	for i := range report.Benchmarks {
		cur := &report.Benchmarks[i]
		old, ok := byName[cur.Name]
		if !ok {
			continue
		}
		cur.VsBaseline = &Delta{
			NsPct:     pctDelta(cur.NsPerOp, old.NsPerOp),
			AllocsPct: pctDelta(cur.AllocsPerOp, old.AllocsPerOp),
			BytesPct:  pctDelta(cur.BytesPerOp, old.BytesPerOp),
		}
	}
	return nil
}

// pctDelta returns the percent change from old to cur. A zero baseline
// with a nonzero current value is compared against 1 instead of reading
// as "unchanged" — once a metric is driven to zero (the zero-alloc
// goal), a regression away from it must still fire a large positive
// delta, and JSON cannot carry +Inf.
func pctDelta(cur, old int64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		old = 1
	}
	return (float64(cur) - float64(old)) / float64(old) * 100
}

func toResult(name string, r testing.BenchmarkResult, metrics map[string]float64) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Metrics:     metrics,
	}
}
