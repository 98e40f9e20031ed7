// Command experiments regenerates the paper's tables and figures (and the
// repository's ablations and extensions) on the simulator.
//
// Usage:
//
//	experiments -exp all                 # everything
//	experiments -exp table2              # one artifact
//	experiments -exp table2,fig7,fig8    # several, in the order -exp all prints them
//	experiments -exp fig7 -rounds 4      # more simulated rounds per run
//	experiments -exp fig7 -format json   # machine-readable rows
//
// Artifacts:  table1 table2 table3 fig1 fig7 fig8 fig9 fig10
// Ablations:  delta eta depth sinkcost skew (AlexNet Conv3, 8x8; the VC
// count, a gather VC and the routing change no cycle there, so none runs)
// Extensions: ina collectives topology dataflow mixed fullmodel fullvgg
// Reliability: faults (collection-scheme degradation under transient loss)
// Workloads:  pipeline (whole-model barrier/overlap vs analytic; -model)
// and multijob (batched inferences + background traffic; -jobs/-overlap)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"

	"gathernoc/internal/experiments"
	"gathernoc/internal/noc"
	"gathernoc/internal/round"
	"gathernoc/internal/workload"
)

// Named flag errors, refused before anything runs.
var (
	errRounds  = errors.New("-rounds must be >= 1")
	errJobs    = errors.New("-jobs must be >= 1")
	errWorkers = errors.New("-workers must be >= 0")
	errModel   = errors.New("-model must be alexnet or vgg16")
	errUnread  = errors.New("not read by the selected artifacts")
)

// reads is a set of the flags an artifact reads besides -exp and -format;
// a flag that no selected artifact reads is refused.
type reads uint8

const (
	readsRounds reads = 1 << iota
	readsWorkers
	readsModel
	readsJobs // -jobs and -overlap
	readsCache
	// pooled artifacts simulate their points on the sweep's worker pool;
	// sweeps are pooled comparison cells, which -cachedir memoizes.
	pooled = readsRounds | readsWorkers
	sweeps = pooled | readsCache
)

// flagReads maps each flag that some artifact ignores to its bit.
var flagReads = map[string]reads{"rounds": readsRounds, "workers": readsWorkers, "model": readsModel,
	"jobs": readsJobs, "overlap": readsJobs, "cachedir": readsCache}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// artifact pairs a machine-readable result with its rendered text form.
type artifact struct {
	name  string
	reads reads
	run   func(experiments.Options) (data any, text string, err error)
}

// rows is the one artifact shape: run produces the machine-readable result,
// render its text form.
func rows[T any](name string, r reads, run func(experiments.Options) (T, error), render func(T) string) artifact {
	return artifact{name: name, reads: r, run: func(opts experiments.Options) (any, string, error) {
		r, err := run(opts)
		if err != nil {
			return nil, "", err
		}
		return r, render(r), nil
	}}
}

// static is a table that needs no simulation; its JSON form is its text.
func static(name string, text func() string) artifact {
	return artifact{name: name, run: func(experiments.Options) (any, string, error) {
		t := text()
		return map[string]string{name: t}, t, nil
	}}
}

func figure(name, title string, fn func(experiments.Options) ([]experiments.ImprovementRow, error)) artifact {
	return rows(name, sweeps, fn, func(r []experiments.ImprovementRow) string {
		return experiments.RenderImprovements(title, "% improvement, gather vs repetitive unicast", r)
	})
}

func ablation(name, title string, fn func(experiments.Options) ([]experiments.AblationRow, error)) artifact {
	return rows(name, sweeps, fn, func(r []experiments.AblationRow) string { return experiments.RenderAblation(title, r) })
}

// fullModel adapts the whole-model runs, which take the mesh size first.
func fullModel(fn func(int, experiments.Options) (*experiments.ModelResult, error)) func(experiments.Options) (*experiments.ModelResult, error) {
	return func(opts experiments.Options) (*experiments.ModelResult, error) { return fn(8, opts) }
}

// artifacts lists everything -exp can name, in the order -exp all prints it.
var artifacts = []artifact{
	static("table1", func() string {
		return experiments.RenderTable1(8, 8) + "\n" + experiments.RenderTable1(16, 16)
	}),
	rows("table2", sweeps, experiments.Table2, experiments.RenderTable2),
	static("table3", experiments.RenderTable3),
	rows("fig1", 0, func(experiments.Options) (experiments.Fig1Result, error) { return experiments.Fig1(), nil }, experiments.RenderFig1),
	figure("fig7", "Fig. 7: total-latency improvement, AlexNet", experiments.Fig7),
	figure("fig8", "Fig. 8: total-latency improvement, VGG-16", experiments.Fig8),
	figure("fig9", "Fig. 9: NoC power improvement, AlexNet", experiments.Fig9),
	figure("fig10", "Fig. 10: NoC power improvement, VGG-16", experiments.Fig10),
	ablation("delta", "Ablation: flat delta sweep (AlexNet Conv3, 8x8)", experiments.AblationDelta),
	ablation("eta", "Ablation: gather capacity sweep", experiments.AblationEta),
	ablation("depth", "Ablation: buffer depth", experiments.AblationBufferDepth),
	ablation("sinkcost", "Ablation: buffer transaction cost per packet", experiments.AblationSinkCost),
	ablation("skew", "Ablation: completion stagger per hop", experiments.AblationSkew),
	rows("ina", pooled, experiments.INAComparison, experiments.RenderINA),
	rows("collectives", pooled, experiments.CollectiveComparison, experiments.RenderCollectives),
	rows("topology", readsWorkers, experiments.TopologyComparison, experiments.RenderTopologyComparison),
	rows("dataflow", sweeps, experiments.Dataflows, experiments.RenderDataflows),
	rows("mixed", pooled, experiments.MixedTraffic, experiments.RenderMixedTraffic),
	rows("faults", pooled, experiments.FaultSweep, experiments.RenderFaultSweep),
	rows("fullmodel", sweeps, fullModel(experiments.FullAlexNet), experiments.RenderModel),
	rows("fullvgg", sweeps, fullModel(experiments.FullVGG16), experiments.RenderModel),
	rows("pipeline", pooled|readsModel, experiments.PipelineComparison, experiments.RenderPipeline),
	rows("multijob", readsRounds|readsJobs, experiments.MultiJob, experiments.RenderMultiJob),
}

// artifactNames is "all" followed by every artifact name, comma-separated:
// the -exp usage string and the unknown-experiment error both print it.
func artifactNames() string {
	names := []string{"all"}
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	return strings.Join(names, ", ")
}

// run writes the report to w and the accounting line to errw.
func run(ctx context.Context, args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "artifacts to regenerate, comma-separated ("+artifactNames()+")")
	rounds := fs.Int("rounds", 2, "systolic rounds to simulate per run")
	format := fs.String("format", "text", "output format (text, json)")
	workers := fs.Int("workers", 0, "parallel simulation workers per sweep (0 = GOMAXPROCS, 1 = serial)")
	model := fs.String("model", "alexnet", "CNN model for the pipeline comparison (alexnet, vgg16)")
	jobs := fs.Int("jobs", 4, "batched inference jobs in the multi-job run")
	overlap := fs.Bool("overlap", false, "double-buffered phase overlap for the multi-job inference pipelines")
	cacheDir := fs.String("cachedir", "", "memoize sweep cells content-addressed under this directory (reruns with identical inputs replay from cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *format != "text" && *format != "json":
		return fmt.Errorf("unknown format %q (text, json)", *format)
	case *rounds < 1:
		return errRounds
	case *jobs < 1:
		return errJobs
	case *workers < 0:
		return errWorkers
	}
	if _, err := workload.ModelLayers(*model); err != nil {
		return fmt.Errorf("%w, not %q", errModel, *model)
	}
	wanted := strings.Split(*exp, ",")
	var read reads
	for _, name := range wanted {
		i := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == name })
		switch {
		case name == "all":
			read = ^reads(0)
		case i < 0:
			return fmt.Errorf("unknown experiment %q (have: %s)", name, artifactNames())
		default:
			read |= artifacts[i].reads
		}
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		if r, ok := flagReads[f.Name]; ok && read&r == 0 && unread == nil {
			unread = fmt.Errorf("-%s: %w (-exp %s)", f.Name, errUnread, *exp)
		}
	})
	if unread != nil {
		return unread
	}
	opts := experiments.Options{
		Rounds: *rounds, Workers: *workers, Ctx: ctx,
		Model: *model, Jobs: *jobs, Overlap: *overlap,
	}
	// The accounting goes to stderr so the report on stdout stays
	// byte-identical between a cold run and its fully cached rerun — the
	// property CI pins. It says what this run's simulations cost in fabrics
	// (built, taken from the reuse pool, dropped on release) and how much of
	// their simulated time the engine jumped over, then what the sweeps'
	// trajectory tables saved: the layer runs that recorded a trajectory,
	// replayed one, or waited for another run's recording, and the releases
	// that kept the fabric as it was loaded, no NIC having taken work. With
	// a cache the hit accounting comes first on the same line.
	if *cacheDir != "" {
		cache, err := experiments.NewCache(*cacheDir)
		if err != nil {
			return err
		}
		opts.Cache = cache
	}
	f0 := noc.ReuseStats()
	tables0 := [...]uint64{round.Recorded(), round.Replayed(), round.Waited()}
	defer func() {
		f, hits := noc.ReuseStats(), ""
		if opts.Cache != nil {
			s := opts.Cache.Stats()
			hits = fmt.Sprintf("cache          dir=%s hits=%d misses=%d stale=%d read=%dB written=%dB ",
				opts.Cache.Dir(), s.Hits, s.Misses, s.Stale, s.BytesRead, s.BytesWritten)
		}
		if f.Built+f.Reused > f0.Built+f0.Reused || hits != "" {
			fmt.Fprintf(errw, "%sfabrics built=%d reused=%d dropped=%d, jumped %d of %d cycles in %d jumps, recorded=%d replayed=%d waited=%d kept=%d\n",
				hits, f.Built-f0.Built, f.Reused-f0.Reused, f.Dropped-f0.Dropped,
				f.JumpedCycles-f0.JumpedCycles, f.Cycles-f0.Cycles, f.Jumps-f0.Jumps,
				round.Recorded()-tables0[0], round.Replayed()-tables0[1], round.Waited()-tables0[2], f.Kept-f0.Kept)
		}
	}()

	jsonOut := map[string]any{}
	for _, a := range artifacts {
		if !slices.Contains(wanted, "all") && !slices.Contains(wanted, a.name) {
			continue
		}
		data, text, err := a.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if *format == "json" {
			jsonOut[a.name] = data
		} else {
			fmt.Fprintf(w, "== %s ==\n%s\n", a.name, text)
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}
