// Command nocsim is a general-purpose cycle-accurate NoC simulator CLI:
// synthetic traffic patterns (uniform, transpose, bitcomplement, hotspot)
// at a configurable injection rate, or replay of a recorded JSON trace.
//
// Usage:
//
//	nocsim -rows 8 -cols 8 -pattern uniform -rate 0.05
//	nocsim -rows 8 -cols 8 -replay conv3.trace
//	nocsim -topology torus -routing xy -rate 0.05 # wraparound fabric
//	nocsim -topology torus -ina -inamode ina      # INA on the torus
//	nocsim -rate 0.005 -cpuprofile cpu.out        # profile a run
//	nocsim -rate 0.005 -memprofile mem.out        # heap profile at exit
//	nocsim -rows 64 -cols 64 -shards 4            # sharded tick loop
//	nocsim -ina -inamode ina -inarounds 4         # in-network accumulation
//	nocsim -collective allreduce -algorithm tree  # mesh-wide collective
//	nocsim -collective bcast -topology torus      # multicast broadcast
//	nocsim -model alexnet -overlap                # whole-model pipeline
//	nocsim -model alexnet -jobs 4                 # batched inferences
//	nocsim -trace trace.json -metrics metrics.csv -epoch 256
//	                                              # telemetry: Perfetto
//	                                              # trace + epoch metrics
//	nocsim -rate 0.02 -faultrate 0.001            # lossy links + recovery
//	nocsim -ina -deadrouter 27@2000               # router dies at cycle 2000
//	nocsim -rate 0.02 -deadlink "0>1,8>9@500:900" # scheduled link outages
//
// Fault injection (DESIGN.md §12) arms the end-to-end retransmission
// machinery and, by default, the stall watchdog: a run wedged by a
// partition exits non-zero with a structured diagnostic dump instead of
// hanging, and the deferred profile/telemetry writers still flush.
//
// A long run answers SIGINT (ctrl-C) by stopping at the next cycle
// boundary and flushing whatever artifacts were requested — profiles,
// telemetry — instead of leaving truncated files behind.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"gathernoc/internal/collective"
	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/sim"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// Flag values that would run something other than what was asked, or
// write nothing where a file was asked for, and flags that would be ignored.
var (
	errNoEpoch       = errors.New("-metrics needs a positive -epoch")
	errNoTraceSample = errors.New("-trace needs a positive -tracesample")
	errModelRounds   = errors.New("-model needs -rounds >= 1")
	errNoCkptCycle   = errors.New("-checkpoint needs a positive -checkpointat cycle")
	errCkptTelemetry = errors.New("-checkpoint cannot capture a run with -trace or -metrics")
	errTwoWorkloads  = errors.New("-model, -collective, -ina, -replay and -resume each select the run; give at most one")
	errUnread        = errors.New("not read by the selected run")
	errAlone         = errors.New("it qualifies a flag that is not set")
)

// runs is a set of nocsim's runs: the synthetic-traffic generator (the
// default), its continuation from a -checkpoint file, and the runs that
// -replay, -model, -collective and -ina select instead.
type runs uint8

const (
	synthRun runs = 1 << iota
	resumeRun
	replayRun
	modelRun
	collRun
	inaRun
	allRuns = synthRun | resumeRun | replayRun | modelRun | collRun | inaRun
	// fabricRuns build the fabric, faults and telemetry from the flags; a
	// resumed run takes the first two from its file and keeps no telemetry.
	fabricRuns = allRuns &^ resumeRun
)

var runNames = map[runs]string{synthRun: "synthetic", resumeRun: "resumed", replayRun: "replay",
	modelRun: "model", collRun: "collective", inaRun: "INA"}

// def defines a flag with define (a method value of the flag set, fs.Int
// say) and records in readers the runs that read it.
func def[T any](readers map[string]runs, define func(string, T, string) *T, name string, value T, by runs, usage string) *T {
	readers[name] = by
	return define(name, value, usage)
}

// needs lists the flags that qualify another: each means something only
// beside one of its list.
var needs = map[string][]string{"epoch": {"metrics"}, "tracesample": {"trace"},
	"checkpointat": {"checkpoint"}, "faultseed": {"faultrate", "faultcorrupt"}}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	return runFlags(flag.NewFlagSet("nocsim", flag.ContinueOnError), map[string]runs{}, args, w)
}

// runFlags defines nocsim's flags on fs, recording their readers in rd,
// and runs what args select.
func runFlags(fs *flag.FlagSet, rd map[string]runs, args []string, w io.Writer) (err error) {
	var (
		rows       = def(rd, fs.Int, "rows", 8, fabricRuns, "fabric rows")
		cols       = def(rd, fs.Int, "cols", 8, fabricRuns, "fabric columns")
		topo       = def(rd, fs.String, "topology", "mesh", fabricRuns, "interconnect fabric (mesh, torus)")
		pattern    = def(rd, fs.String, "pattern", "uniform", synthRun, "traffic pattern (uniform, transpose, bitcomplement, hotspot)")
		rate       = def(rd, fs.Float64, "rate", 0.02, synthRun, "injection rate (packets/node/cycle)")
		flits      = def(rd, fs.Int, "flits", 2, synthRun, "packet length in flits")
		warmup     = def(rd, fs.Int64, "warmup", 1000, synthRun, "warm-up cycles")
		measure    = def(rd, fs.Int64, "measure", 5000, synthRun, "measurement cycles")
		seed       = def(rd, fs.Int64, "seed", 1, synthRun, "random seed")
		vcs        = def(rd, fs.Int, "vcs", 4, fabricRuns, "virtual channels")
		depth      = def(rd, fs.Int, "depth", 4, fabricRuns, "buffer depth in flits")
		routing    = def(rd, fs.String, "routing", "xy", fabricRuns, "routing algorithm (xy, westfirst, oddeven)")
		replayPath = def(rd, fs.String, "replay", "", replayRun, "replay a JSON trace file instead of synthetic traffic")
		maxCycles  = def(rd, fs.Int64, "maxcycles", 10_000_000, allRuns, "simulation cycle budget")
		heatmap    = def(rd, fs.Bool, "heatmap", false, allRuns, "print a per-router utilization heatmap after the run")
		shards     = def(rd, fs.Int, "shards", 0, allRuns, "row-partitioned tick-loop shards (0 = sequential engine)")
		cpuProfile = def(rd, fs.String, "cpuprofile", "", allRuns, "write a CPU profile of the run to this file")
		memProfile = def(rd, fs.String, "memprofile", "", allRuns, "write an allocation profile at exit to this file")
		ina        = def(rd, fs.Bool, "ina", false, inaRun, "run the in-network accumulation workload instead of synthetic traffic")
		inaMode    = def(rd, fs.String, "inamode", "ina", inaRun, "accumulation collection scheme (unicast, gather, ina)")
		inaRounds  = def(rd, fs.Int, "inarounds", 4, inaRun, "accumulation rounds to simulate")
		coll       = def(rd, fs.String, "collective", "", collRun, "run a mesh-wide collective instead of synthetic traffic (reduce, bcast, allreduce)")
		collAlg    = def(rd, fs.String, "algorithm", "tree", collRun, "collective transport (tree, flat, fused)")
		model      = def(rd, fs.String, "model", "", modelRun, "run a whole-model CNN pipeline workload (alexnet, vgg16) instead of synthetic traffic")
		jobs       = def(rd, fs.Int, "jobs", 1, modelRun, "concurrent inference jobs of the pipeline workload")
		overlap    = def(rd, fs.Bool, "overlap", false, modelRun, "double-buffered inter-layer overlap (default: strict barrier)")
		rounds     = def(rd, fs.Int, "rounds", 2, modelRun|collRun, "simulated rounds per pipeline layer (-model) or collective (-collective)")
		traceOut   = def(rd, fs.String, "trace", "", fabricRuns, "write a Chrome Trace Event JSON (Perfetto-loadable) of sampled packet lifecycles to this file")
		metricsOut = def(rd, fs.String, "metrics", "", fabricRuns, "write per-epoch congestion/utilization metrics CSV to this file")
		epoch      = def(rd, fs.Int64, "epoch", 256, fabricRuns, "telemetry metrics snapshot period in cycles (with -metrics)")
		traceEvery = def(rd, fs.Uint64, "tracesample", 64, fabricRuns, "trace one packet in N (with -trace; 1 traces everything)")
		faultRate  = def(rd, fs.Float64, "faultrate", 0, fabricRuns, "transient flit drop probability per inter-router link traversal")
		faultCorr  = def(rd, fs.Float64, "faultcorrupt", 0, fabricRuns, "transient packet corruption probability per inter-router link traversal")
		faultSeed  = def(rd, fs.Uint64, "faultseed", 1, fabricRuns, "fault schedule seed (with -faultrate or -faultcorrupt)")
		deadRouter = def(rd, fs.String, "deadrouter", "", fabricRuns, "router outages: node[@from[:until]], comma-separated (no until = permanent)")
		deadLink   = def(rd, fs.String, "deadlink", "", fabricRuns, "directed link outages: src>dst[@from[:until]], comma-separated")
		watchdog   = def(rd, fs.Int64, "watchdog", 0, allRuns, "stall watchdog window in cycles (0 = auto when faults are on, negative disables)")
		ckptPath   = def(rd, fs.String, "checkpoint", "", synthRun|resumeRun, "write a checkpoint of the synthetic run to this file at -checkpointat, then keep running")
		ckptAt     = def(rd, fs.Int64, "checkpointat", 0, synthRun|resumeRun, "cycle to take the -checkpoint at")
		resumePath = def(rd, fs.String, "resume", "", resumeRun, "resume a synthetic run from a -checkpoint file (fabric and traffic config come from the file)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A set flag that the selected run does not read, or that qualifies an
	// unset flag, would be ignored; the defaults are not zero, so ask.
	sel := synthRun
	for r, on := range map[runs]bool{modelRun: *model != "", collRun: *coll != "", inaRun: *ina,
		replayRun: *replayPath != "", resumeRun: *resumePath != ""} {
		switch {
		case on && sel != synthRun:
			return errTwoWorkloads
		case on:
			sel = r
		}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fs.Visit(func(f *flag.Flag) {
		switch need := needs[f.Name]; {
		case err != nil:
		case rd[f.Name]&sel == 0:
			err = fmt.Errorf("-%s: %w (the %s run)", f.Name, errUnread, runNames[sel])
		case need != nil && !slices.ContainsFunc(need, func(n string) bool { return set[n] }):
			err = fmt.Errorf("-%s needs -%s: %w", f.Name, strings.Join(need, " or -"), errAlone)
		}
	})
	switch {
	case err != nil:
		return err
	case *metricsOut != "" && *epoch <= 0:
		return errNoEpoch
	case *traceOut != "" && *traceEvery == 0:
		return errNoTraceSample
	case *model != "" && *rounds < 1:
		return errModelRounds
	case *ckptPath != "" && *ckptAt <= 0:
		return errNoCkptCycle
	case *ckptPath != "" && (*traceOut != "" || *metricsOut != ""):
		return errCkptTelemetry
	}
	var ck *checkpointFile
	if *resumePath != "" {
		if ck, err = loadCheckpoint(*resumePath); err != nil {
			return err
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		// The "allocs" profile keeps every allocation site since process
		// start, which is what the steady-state ratchet work cares about
		// (inuse heap at exit is near zero — the pools hold everything).
		defer func() {
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	cfg := noc.DefaultConfig(*rows, *cols)
	if *topo == "torus" {
		// The torus has no east edge to hang global-buffer sinks off; row
		// collection targets the east-column PEs (noc.Network.RowLine).
		cfg = noc.DefaultTorusConfig(*rows, *cols)
	} else {
		cfg.Topology = *topo
	}
	cfg.Router.VCs = *vcs
	cfg.Router.BufferDepth = *depth
	cfg.Routing = *routing
	cfg.Shards = *shards
	cfg.EnableINA = *ina || *coll != "" && *collAlg == "fused" // the fused transport reduces in the routers
	fcfg, err := parseFaultFlags(*faultRate, *faultCorr, *faultSeed, *deadRouter, *deadLink)
	if err != nil {
		return err
	}
	cfg.Faults = fcfg
	if *traceOut != "" || *metricsOut != "" {
		tcfg := telemetry.Config{}
		if *metricsOut != "" {
			tcfg.Epoch = *epoch
		}
		if *traceOut != "" {
			tcfg.TraceSample = *traceEvery
		}
		cfg.Telemetry = &tcfg
	}
	if ck != nil {
		// The checkpoint carries the capturing run's configuration; only the
		// result-invariant engine sharding follows this invocation's flags.
		cfg = ck.network.Config
		cfg.Shards = *shards
	}
	nw, err := noc.New(cfg)
	if err != nil {
		return err
	}
	defer nw.Close()

	// Telemetry is harvested on every exit path — normal completion,
	// errors and interrupts alike — so a stopped run still leaves usable
	// artifacts. Registered after nw.Close's defer, so it runs first.
	defer func() {
		if ferr := writeTelemetry(nw, *traceOut, *metricsOut, w); ferr != nil && err == nil {
			err = ferr
		}
	}()

	// SIGINT stops the engine at the next cycle boundary; the deferred
	// profile and telemetry writers then flush as usual. The handler is
	// unregistered before stop cancels the context on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer context.AfterFunc(ctx, func() {
		fmt.Fprintln(os.Stderr, "nocsim: interrupt — stopping at the next cycle boundary")
		nw.Engine().Interrupt()
	})()

	// The watchdog arms automatically whenever fault injection is on (the
	// window then defaults to four maximally backed-off retransmission
	// intervals); an explicit positive -watchdog arms it unconditionally and
	// a negative one disables it. A stall propagates as a *sim.StallError —
	// non-zero exit, diagnostic dump — while the deferred writers above
	// still flush the run's artifacts.
	if *watchdog >= 0 && (*watchdog > 0 || nw.FaultInjector() != nil) {
		nw.Engine().SetWatchdog(nw.Watchdog(*watchdog))
	}

	// Run the selected workload, then the one tail every workload shares.
	var workloadErr error
	switch sel {
	case modelRun:
		workloadErr = runPipeline(nw, *model, *jobs, *rounds, *overlap, *maxCycles, w)
	case collRun:
		workloadErr = runCollectiveCLI(nw, *coll, *collAlg, *rounds, *maxCycles, w)
	case inaRun:
		workloadErr = runINA(nw, *inaMode, *inaRounds, *maxCycles, w)
	case replayRun:
		workloadErr = replay(nw, *replayPath, *maxCycles, w)
	case resumeRun:
		workloadErr = runGenerator(nw, ck.Pattern, ck.Traffic, ck, *resumePath, *ckptPath, *ckptAt, *maxCycles, w)
	default:
		gcfg := traffic.GeneratorConfig{InjectionRate: *rate, PacketFlits: *flits, Warmup: *warmup, Measure: *measure, Seed: *seed}
		workloadErr = runGenerator(nw, *pattern, gcfg, nil, "", *ckptPath, *ckptAt, *maxCycles, w)
	}
	// A SIGINT-triggered stop is a clean exit: partial results were already
	// reported and the artifacts flush in the defers above.
	if errors.Is(workloadErr, sim.ErrInterrupted) {
		fmt.Fprintf(w, "interrupted    at cycle %d; flushing artifacts\n", nw.Engine().Cycle())
	} else if workloadErr != nil {
		return workloadErr
	}
	faultSummary(nw, w)
	if *heatmap {
		fmt.Fprint(w, nw.UtilizationHeatmap())
	}
	return nil
}

// runGenerator drives the synthetic-traffic workload: open-loop injection
// under the named pattern, optionally starting from a restored checkpoint
// (ck) and optionally pausing to write one at cycle ckptAt.
func runGenerator(nw *noc.Network, patternName string, gcfg traffic.GeneratorConfig, ck *checkpointFile,
	resumePath, ckptPath string, ckptAt, maxCycles int64, w io.Writer) error {
	p, err := traffic.PatternByName(patternName, nw.Topology())
	if err != nil {
		return err
	}
	gcfg.Pattern = p
	gen, err := traffic.NewGenerator(nw, gcfg)
	if err != nil {
		return err
	}
	// Drive the engine directly (the same AddTicker+RunUntil schedule
	// gen.Run uses) so the run can pause at a checkpoint cycle or start
	// from a restored one.
	eng := nw.Engine()
	eng.AddTicker(gen)
	if ck != nil {
		if err := nw.Restore(ck.network); err != nil {
			return err
		}
		var d flit.Decoder
		d.Reset(ck.generator, 0, 0)
		if err := gen.LoadState(&d); err != nil {
			return err
		}
		fmt.Fprintf(w, "resumed        %s at cycle %d\n", resumePath, eng.Cycle())
	}
	if ckptPath != "" {
		if eng.Cycle() >= ckptAt {
			return fmt.Errorf("-checkpointat %d is not ahead of cycle %d", ckptAt, eng.Cycle())
		}
		// The predicate waits for a cycle, so that cycle ends the budget: a
		// clock jump stops there at the latest (sim.Engine.RunUntil).
		atCkpt := func() bool { return eng.Cycle() >= ckptAt }
		if _, err := eng.RunUntil(atCkpt, min(maxCycles, ckptAt-eng.Cycle())); err != nil {
			return err
		}
		if err := writeCheckpoint(ckptPath, patternName, gcfg, nw, gen); err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint     %s at cycle %d\n", ckptPath, eng.Cycle())
	}
	done := func() bool { return gen.Injected() && nw.Quiescent() }
	cycles, err := eng.RunUntil(done, maxCycles)
	if err != nil {
		return err
	}
	res := gen.Result(cycles)
	cfg := nw.Config()
	fmt.Fprintf(w, "fabric         %dx%d %s (%s routing), %d VCs, depth %d\n",
		cfg.Rows, cfg.Cols, nw.Topology().Name(), nw.Routing().Name(),
		cfg.Router.VCs, cfg.Router.BufferDepth)
	fmt.Fprintf(w, "pattern        %s @ %.3f pkts/node/cycle\n", p.Name(), gcfg.InjectionRate)
	fmt.Fprintf(w, "injected       %d packets\n", res.Injected)
	fmt.Fprintf(w, "received       %d packets\n", res.Received)
	fmt.Fprintf(w, "latency        %s\n", res.Latency.String())
	fmt.Fprintf(w, "throughput     offered %.4f, accepted %.4f pkts/node/cycle; backlog %d packets%s\n",
		res.Offered, res.Throughput, res.Backlog, saturated(res))
	fmt.Fprintf(w, "cycles         %d (incl. drain)\n", res.Cycles)
	a := nw.Activity()
	fmt.Fprintf(w, "link flits     %d\n", a.LinkFlits)
	if total := eng.Evaluated() + eng.Skipped(); total > 0 {
		fmt.Fprintf(w, "evaluations    %d of %d (%.1f%% slept), jumped %d of %d cycles in %d jumps\n",
			eng.Evaluated(), total, float64(eng.Skipped())/float64(total)*100,
			eng.JumpedCycles(), eng.Cycle(), eng.Jumps())
	}
	return nil
}

// saturated is the throughput line's verdict: "; saturated" when the
// accepted load falls short of the offered one by more than
// traffic.SaturationMargin of it.
func saturated(res *traffic.GeneratorResult) string {
	if !res.Saturated() {
		return ""
	}
	return fmt.Sprintf("; saturated (accepted more than %.0f%% short of offered)", traffic.SaturationMargin*100)
}

// parseFaultFlags compiles the fault CLI flags into a fault.Config, nil
// when no fault source was requested (keeping the network bit-identical
// to a fault-free build).
func parseFaultFlags(rate, corrupt float64, seed uint64, deadRouters, deadLinks string) (*fault.Config, error) {
	fc := &fault.Config{Seed: seed, DropRate: rate, CorruptRate: corrupt}
	for _, spec := range outageSpecs(deadRouters) {
		var o fault.RouterOutage
		if err := parseOutage(spec, &o.Window, &o.Node); err != nil {
			return nil, fmt.Errorf("deadrouter %q: %w", spec, err)
		}
		fc.Routers = append(fc.Routers, o)
	}
	for _, spec := range outageSpecs(deadLinks) {
		var o fault.LinkOutage
		if err := parseOutage(spec, &o.Window, &o.SrcNode, &o.DstNode); err != nil {
			return nil, fmt.Errorf("deadlink %q: %w", spec, err)
		}
		fc.Links = append(fc.Links, o)
	}
	if !fc.Enabled() {
		return nil, nil
	}
	return fc, nil
}

// outageSpecs splits a comma-separated outage flag; "" holds none.
func outageSpecs(flag string) []string {
	if flag == "" {
		return nil
	}
	return strings.Split(flag, ",")
}

// parseOutage reads an outage spec: its nodes (a router, or a link's
// src>dst) into nodes, and its optional "@from[:until]" suffix into win
// (no suffix means permanent from cycle 0).
func parseOutage(spec string, win *fault.Window, nodes ...*int) error {
	name, span, timed := strings.Cut(strings.TrimSpace(spec), "@")
	ids := strings.Split(name, ">")
	if len(ids) != len(nodes) {
		return errors.New("want node[@from[:until]] for a router, src>dst[@from[:until]] for a link")
	}
	for i, id := range ids {
		n, err := strconv.Atoi(id)
		if err != nil {
			return fmt.Errorf("bad node id: %w", err)
		}
		*nodes[i] = n
	}
	var err error
	from, until, bounded := strings.Cut(span, ":")
	if timed {
		if win.From, err = strconv.ParseInt(from, 10, 64); err != nil {
			return fmt.Errorf("bad from cycle: %w", err)
		}
	}
	if bounded {
		if win.Until, err = strconv.ParseInt(until, 10, 64); err != nil {
			return fmt.Errorf("bad until cycle: %w", err)
		}
	}
	return nil
}

// faultSummary prints the recovery accounting when fault injection was on:
// what the injector destroyed and what the retransmission layer paid to
// survive it.
func faultSummary(nw *noc.Network, w io.Writer) {
	inj := nw.FaultInjector()
	if inj == nil {
		return
	}
	nics := nw.NICTotals()
	fmt.Fprintf(w, "faults         %d flits dropped, %d packets corrupted, %d retransmits, %d payloads abandoned\n",
		inj.Drops(), inj.Corrupts(), nics.Retransmits, nics.AbandonedPayloads)
}

// runPipeline drives a whole-model CNN inference pipeline — one job per
// batched inference, each a layer-by-layer phase DAG on the shared fabric
// — through the workload scheduler and prints the per-job timeline,
// latency and fairness summary.
func runPipeline(nw *noc.Network, model string, jobCount, rounds int, overlap bool, maxCycles int64, w io.Writer) error {
	layers, err := workload.ModelLayers(model)
	if err != nil {
		return err
	}
	jobs, drivers, err := workload.NewInferenceBatch(nw, jobCount, 5, workload.PipelineConfig{
		Layers:  layers,
		Scheme:  traffic.CollectGather,
		Rounds:  rounds,
		Overlap: overlap,
	})
	if err != nil {
		return err
	}
	s, err := workload.New(nw, jobs)
	if err != nil {
		return err
	}
	res, err := s.Run(maxCycles)
	if err != nil {
		return err
	}
	mode := "barrier"
	if overlap {
		mode = "overlap"
	}
	cfg := nw.Config()
	fmt.Fprintf(w, "workload       %s (%d layers) x %d job(s), %s phases, %d rounds/layer\n",
		model, len(layers), jobCount, mode, rounds)
	fmt.Fprintf(w, "fabric         %dx%d %s (%s routing)\n",
		cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), cfg.EffectiveRouting())
	oracleErrs := 0
	var extrapolated int64
	for j, job := range res.Jobs {
		for _, d := range drivers[j] {
			snap := d.Snapshot()
			oracleErrs += snap.OracleErrors
			extrapolated += snap.TotalCycles
		}
		fmt.Fprintf(w, "job %-10s start %6d done %8d (%8d cycles), %5d packets, latency %s\n",
			job.Name, job.StartCycle, job.DrainedCycle, job.Time(), job.PacketsEjected, job.Latency.String())
	}
	fmt.Fprintf(w, "extrapolated   %d cycles for the full model(s)\n", extrapolated)
	if jobCount > 1 {
		fmt.Fprintf(w, "fairness       max/min slowdown %.3f, Jain %.3f\n", res.MaxMinSlowdown(), res.JainFairness())
	}
	oracle := "exact"
	if oracleErrs != 0 {
		oracle = fmt.Sprintf("%d ERRORS", oracleErrs)
	}
	fmt.Fprintf(w, "oracle         %s row sums\n", oracle)
	fmt.Fprintf(w, "cycles         %d\n", res.Cycles)
	if oracleErrs != 0 {
		return fmt.Errorf("reduction oracle mismatch: %d errors", oracleErrs)
	}
	return nil
}

// runCollectiveCLI drives a mesh-wide collective — reduce, broadcast or
// all-reduce over every PE — under the chosen transport and prints the
// round latency, root-port traffic and oracle verdict.
func runCollectiveCLI(nw *noc.Network, opName, algName string, rounds int, maxCycles int64, w io.Writer) error {
	op, err := collective.OpByName(opName)
	if err != nil {
		return err
	}
	alg, err := collective.AlgorithmByName(algName)
	if err != nil {
		return err
	}
	ctl, err := collective.NewDriver(nw, collective.Config{
		Op: op, Algorithm: alg, Rounds: rounds, ComputeLatency: 10,
	})
	if err != nil {
		return err
	}
	cycles, err := workload.Run(nw, ctl, maxCycles)
	if err != nil {
		return fmt.Errorf("collective: %s/%s on %dx%d: %w", op, alg, nw.Config().Rows, nw.Config().Cols, err)
	}
	res := ctl.Result(cycles)
	oracle := "exact"
	if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
		oracle = fmt.Sprintf("%d reduce / %d broadcast ERRORS", res.OracleErrors, res.BroadcastErrors)
	}
	cfg := nw.Config()
	fmt.Fprintf(w, "fabric         %dx%d %s, collective %s/%s, %d rounds\n",
		cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), op, alg, res.Rounds)
	fmt.Fprintf(w, "round latency  %s\n", res.RoundCycles.String())
	fmt.Fprintf(w, "packet latency %s\n", res.PacketLatency.String())
	fmt.Fprintf(w, "root flits     %d in %d packets\n", res.RootFlits, res.RootPackets)
	fmt.Fprintf(w, "merges         %d in-network, %d self-initiated fallbacks\n", res.Merges, res.SelfInitiated)
	fmt.Fprintf(w, "oracle         %s\n", oracle)
	fmt.Fprintf(w, "cycles         %d\n", res.Cycles)
	if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
		return fmt.Errorf("collective verification mismatch")
	}
	return nil
}

// runINA drives the accumulation-phase workload: every round each PE
// produces a partial sum and the row's reduction must land at the east
// sink, collected by the chosen scheme and checked against the software
// reduction oracle.
func runINA(nw *noc.Network, mode string, rounds int, maxCycles int64, w io.Writer) error {
	scheme, err := traffic.SchemeByName(mode)
	if err != nil {
		return err
	}
	ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
		Scheme: scheme, Rounds: rounds, ComputeLatency: 10,
	})
	if err != nil {
		return err
	}
	cycles, err := workload.Run(nw, ctl, maxCycles)
	if err != nil {
		return fmt.Errorf("traffic: accumulation %s on %dx%d: %w", scheme, nw.Config().Rows, nw.Config().Cols, err)
	}
	res := ctl.Result(cycles)
	oracle := "exact"
	if res.OracleErrors != 0 {
		oracle = fmt.Sprintf("%d ERRORS", res.OracleErrors)
	}
	cfg := nw.Config()
	fmt.Fprintf(w, "fabric         %dx%d %s, scheme %s, %d rounds\n",
		cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), scheme, res.Rounds)
	fmt.Fprintf(w, "round latency  %s\n", res.RoundCycles.String())
	fmt.Fprintf(w, "packet latency %s\n", res.PacketLatency.String())
	fmt.Fprintf(w, "sink flits     %d (%.2f per row-reduction)\n", res.SinkFlits, res.SinkFlitsPerRow())
	fmt.Fprintf(w, "sink packets   %d\n", res.SinkPackets)
	fmt.Fprintf(w, "merges         %d in-network, %d self-initiated fallbacks\n", res.Merges, res.SelfInitiated)
	fmt.Fprintf(w, "savings        %s\n", res.Reduction.String())
	fmt.Fprintf(w, "oracle         %s row sums\n", oracle)
	fmt.Fprintf(w, "cycles         %d\n", res.Cycles)
	if res.OracleErrors != 0 {
		return fmt.Errorf("reduction oracle mismatch: %d errors", res.OracleErrors)
	}
	return nil
}

// writeTelemetry harvests the run's telemetry (if enabled) and writes the
// requested export files.
func writeTelemetry(nw *noc.Network, tracePath, metricsPath string, w io.Writer) error {
	rep := nw.HarvestTelemetry()
	if rep == nil {
		return nil
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, "metrics", rep.WriteMetricsCSV); err != nil {
			return err
		}
		// A run longer than the ring's window keeps only its newest epochs;
		// say which ones the file lacks.
		lost := ""
		if n := len(rep.EpochIndex); n > 0 && rep.EpochIndex[0] > 0 {
			lost = fmt.Sprintf("; epochs 0–%d overwritten (window %d)", rep.EpochIndex[0]-1, n)
		}
		fmt.Fprintf(w, "metrics        %s (%d epochs x %d sources, epoch %d cycles%s)\n",
			metricsPath, len(rep.EpochIndex), len(rep.Sources), rep.Epoch, lost)
	}
	if tracePath != "" {
		if err := writeFile(tracePath, "trace", rep.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace          %s (%d events, %d dropped) — load in ui.perfetto.dev\n",
			tracePath, len(rep.Events), rep.DroppedEvents)
	}
	return nil
}

// writeFile creates path and fills it with write; errors name what.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = cmp.Or(write(f), f.Close())
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

func replay(nw *noc.Network, path string, maxCycles int64, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := traffic.Read(f)
	if err != nil {
		return err
	}
	rp, err := traffic.NewReplayer(nw, events)
	if err != nil {
		return err
	}
	cycles, err := rp.Run(maxCycles)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed       %d events\n", rp.EventsInjected)
	fmt.Fprintf(w, "cycles         %d\n", cycles)
	a := nw.Activity()
	fmt.Fprintf(w, "packets sent   %d\n", a.PacketsSent)
	fmt.Fprintf(w, "link flits     %d\n", a.LinkFlits)
	fmt.Fprintf(w, "gather uploads %d\n", a.GatherUploads)
	return nil
}
