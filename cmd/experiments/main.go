// Command experiments regenerates the paper's tables and figures (and the
// repository's ablations and extensions) on the simulator.
//
// Usage:
//
//	experiments -exp all                 # everything
//	experiments -exp table2              # one artifact
//	experiments -exp fig7 -rounds 4      # more simulated rounds per run
//	experiments -exp fig7 -format json   # machine-readable rows
//
// Artifacts:  table1 table2 table3 fig1 fig7 fig8 fig9 fig10
// Ablations:  delta eta gathervc vcs depth sinkcost skew routing
// Extensions: ina collectives topology dataflow mixed streaming fullmodel
// fullvgg
// Reliability: faults (collection-scheme degradation under transient loss)
// Workloads:  pipeline (whole-model barrier/overlap vs analytic; -model)
// and multijob (batched inferences + background traffic; -jobs/-overlap)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"gathernoc/internal/experiments"
	"gathernoc/internal/noc"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// artifact pairs a machine-readable result with its rendered text form.
type artifact struct {
	name string
	run  func() (data any, text string, err error)
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "artifact to regenerate (all, table1, table2, table3, fig1, fig7, fig8, fig9, fig10, delta, eta, gathervc, vcs, depth, sinkcost, skew, routing, ina, collectives, topology, dataflow, mixed, streaming, fullmodel, fullvgg, faults, pipeline, multijob)")
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
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q (text, json)", *format)
	}
	opts := experiments.Options{
		Rounds: *rounds, Workers: *workers, Ctx: ctx,
		Model: *model, Jobs: *jobs, Overlap: *overlap,
	}
	if *cacheDir != "" {
		cache, err := experiments.NewCache(*cacheDir)
		if err != nil {
			return err
		}
		opts.Cache = cache
		// The hit accounting goes to stderr so the report on stdout stays
		// byte-identical between a cold run and its fully cached rerun —
		// the property CI pins. The same line says what the misses cost in
		// fabrics: built, taken from the reuse pool, dropped on release.
		defer func() {
			s, f := cache.Stats(), noc.ReuseStats()
			fmt.Fprintf(os.Stderr, "cache          dir=%s hits=%d misses=%d stale=%d read=%dB written=%dB fabrics built=%d reused=%d dropped=%d\n",
				cache.Dir(), s.Hits, s.Misses, s.Stale, s.BytesRead, s.BytesWritten, f.Built, f.Reused, f.Dropped)
		}()
	}

	artifacts := []artifact{
		{"table1", func() (any, string, error) {
			text := experiments.RenderTable1(8, 8) + "\n" + experiments.RenderTable1(16, 16)
			return map[string]string{"table1": text}, text, nil
		}},
		{"table2", func() (any, string, error) {
			rows, err := experiments.Table2(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderTable2(rows), nil
		}},
		{"table3", func() (any, string, error) {
			text := experiments.RenderTable3()
			return map[string]string{"table3": text}, text, nil
		}},
		{"fig1", func() (any, string, error) {
			r := experiments.Fig1()
			return r, experiments.RenderFig1(r), nil
		}},
		figure("fig7", "Fig. 7: total-latency improvement, AlexNet", experiments.Fig7, opts),
		figure("fig8", "Fig. 8: total-latency improvement, VGG-16", experiments.Fig8, opts),
		figure("fig9", "Fig. 9: NoC power improvement, AlexNet", experiments.Fig9, opts),
		figure("fig10", "Fig. 10: NoC power improvement, VGG-16", experiments.Fig10, opts),
		ablation("delta", "Ablation: flat delta sweep (AlexNet Conv3, 8x8)", experiments.AblationDelta, opts),
		ablation("eta", "Ablation: gather capacity sweep", experiments.AblationEta, opts),
		ablation("gathervc", "Ablation: dedicated gather VC (0=shared, 1=dedicated)", experiments.AblationGatherVC, opts),
		ablation("vcs", "Ablation: virtual channel count", experiments.AblationVCs, opts),
		ablation("depth", "Ablation: buffer depth", experiments.AblationBufferDepth, opts),
		ablation("sinkcost", "Ablation: buffer transaction cost per packet", experiments.AblationSinkCost, opts),
		ablation("skew", "Ablation: completion stagger per hop", experiments.AblationSkew, opts),
		ablation("routing", "Ablation: routing algorithm (0=XY, 1=west-first)", experiments.AblationRouting, opts),
		{"ina", func() (any, string, error) {
			rows, err := experiments.INAComparison(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderINA(rows), nil
		}},
		{"collectives", func() (any, string, error) {
			rows, err := experiments.CollectiveComparison(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderCollectives(rows), nil
		}},
		{"topology", func() (any, string, error) {
			rows, err := experiments.TopologyComparison(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderTopologyComparison(rows), nil
		}},
		{"dataflow", func() (any, string, error) {
			rows, err := experiments.Dataflows(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderDataflows(rows), nil
		}},
		{"mixed", func() (any, string, error) {
			rows, err := experiments.MixedTraffic(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderMixedTraffic(rows), nil
		}},
		{"faults", func() (any, string, error) {
			rows, err := experiments.FaultSweep(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderFaultSweep(rows), nil
		}},
		{"streaming", func() (any, string, error) {
			r, err := experiments.StreamingOverNoC(64)
			if err != nil {
				return nil, "", err
			}
			return r, experiments.RenderStreaming(r), nil
		}},
		{"fullmodel", func() (any, string, error) {
			r, err := experiments.FullAlexNet(8, opts)
			if err != nil {
				return nil, "", err
			}
			return r, experiments.RenderModel(r), nil
		}},
		{"fullvgg", func() (any, string, error) {
			r, err := experiments.FullVGG16(8, opts)
			if err != nil {
				return nil, "", err
			}
			return r, experiments.RenderModel(r), nil
		}},
		{"pipeline", func() (any, string, error) {
			rows, err := experiments.PipelineComparison(opts)
			if err != nil {
				return nil, "", err
			}
			return rows, experiments.RenderPipeline(rows), nil
		}},
		{"multijob", func() (any, string, error) {
			r, err := experiments.MultiJob(opts)
			if err != nil {
				return nil, "", err
			}
			return r, experiments.RenderMultiJob(r), nil
		}},
	}

	ran := 0
	jsonOut := map[string]any{}
	for _, a := range artifacts {
		if *exp != "all" && *exp != a.name {
			continue
		}
		data, text, err := a.run()
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if *format == "json" {
			jsonOut[a.name] = data
		} else {
			fmt.Fprintf(w, "== %s ==\n%s\n", a.name, text)
		}
		ran++
	}
	if ran == 0 {
		names := make([]string, 0, len(artifacts))
		for _, a := range artifacts {
			names = append(names, a.name)
		}
		return fmt.Errorf("unknown experiment %q (have: all, %s)", *exp, strings.Join(names, ", "))
	}
	if *format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}

func figure(name, title string, fn func(experiments.Options) ([]experiments.ImprovementRow, error), opts experiments.Options) artifact {
	return artifact{name: name, run: func() (any, string, error) {
		rows, err := fn(opts)
		if err != nil {
			return nil, "", err
		}
		return rows, experiments.RenderImprovements(title, "% improvement, gather vs repetitive unicast", rows), nil
	}}
}

func ablation(name, title string, fn func(experiments.Options) ([]experiments.AblationRow, error), opts experiments.Options) artifact {
	return artifact{name: name, run: func() (any, string, error) {
		rows, err := fn(opts)
		if err != nil {
			return nil, "", err
		}
		return rows, experiments.RenderAblation(title, rows), nil
	}}
}
