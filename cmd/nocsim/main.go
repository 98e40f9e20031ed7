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
// write nothing where a file was asked for.
var (
	errNoEpoch       = errors.New("-metrics needs a positive -epoch")
	errNoTraceSample = errors.New("-trace needs a positive -tracesample")
	errModelRounds   = errors.New("-model needs -rounds >= 1")
	errINAFlags      = errors.New("-inamode and -inarounds need -ina")
	errRoundsFlag    = errors.New("-rounds needs -model or -collective (-ina takes -inarounds)")
	errModelFlags    = errors.New("-jobs and -overlap need -model")
	errAlgorithmFlag = errors.New("-algorithm needs -collective")
	errTwoWorkloads  = errors.New("-model, -collective, -ina and -replay each select the workload; give at most one")
	errTrafficFlags  = errors.New("-pattern, -rate, -flits, -warmup, -measure and -seed drive synthetic traffic, " +
		"which -model, -collective, -ina and -replay replace and -resume takes from its file")
)

// trafficFlags are the flags only the synthetic-traffic generator reads.
var trafficFlags = []string{"pattern", "rate", "flits", "warmup", "measure", "seed"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	var (
		rows       = fs.Int("rows", 8, "fabric rows")
		cols       = fs.Int("cols", 8, "fabric columns")
		topo       = fs.String("topology", "mesh", "interconnect fabric (mesh, torus)")
		pattern    = fs.String("pattern", "uniform", "traffic pattern (uniform, transpose, bitcomplement, hotspot)")
		rate       = fs.Float64("rate", 0.02, "injection rate (packets/node/cycle)")
		flits      = fs.Int("flits", 2, "packet length in flits")
		warmup     = fs.Int64("warmup", 1000, "warm-up cycles")
		measure    = fs.Int64("measure", 5000, "measurement cycles")
		seed       = fs.Int64("seed", 1, "random seed")
		vcs        = fs.Int("vcs", 4, "virtual channels")
		depth      = fs.Int("depth", 4, "buffer depth in flits")
		routing    = fs.String("routing", "xy", "routing algorithm (xy, westfirst, oddeven)")
		replayPath = fs.String("replay", "", "replay a JSON trace file instead of synthetic traffic")
		maxCycles  = fs.Int64("maxcycles", 10_000_000, "simulation cycle budget")
		heatmap    = fs.Bool("heatmap", false, "print a per-router utilization heatmap after the run")
		shards     = fs.Int("shards", 0, "row-partitioned tick-loop shards (0 = sequential engine)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile at exit to this file")
		ina        = fs.Bool("ina", false, "run the in-network accumulation workload instead of synthetic traffic")
		inaMode    = fs.String("inamode", "ina", "accumulation collection scheme (unicast, gather, ina)")
		inaRounds  = fs.Int("inarounds", 4, "accumulation rounds to simulate")
		coll       = fs.String("collective", "", "run a mesh-wide collective instead of synthetic traffic (reduce, bcast, allreduce)")
		collAlg    = fs.String("algorithm", "tree", "collective transport (tree, flat, fused)")
		model      = fs.String("model", "", "run a whole-model CNN pipeline workload (alexnet, vgg16) instead of synthetic traffic")
		jobs       = fs.Int("jobs", 1, "concurrent inference jobs of the pipeline workload")
		overlap    = fs.Bool("overlap", false, "double-buffered inter-layer overlap (default: strict barrier)")
		rounds     = fs.Int("rounds", 2, "simulated rounds per pipeline layer (-model) or collective (-collective)")
		traceOut   = fs.String("trace", "", "write a Chrome Trace Event JSON (Perfetto-loadable) of sampled packet lifecycles to this file")
		metricsOut = fs.String("metrics", "", "write per-epoch congestion/utilization metrics CSV to this file")
		epoch      = fs.Int64("epoch", 256, "telemetry metrics snapshot period in cycles (with -metrics)")
		traceEvery = fs.Uint64("tracesample", 64, "trace one packet in N (with -trace; 1 traces everything)")
		faultRate  = fs.Float64("faultrate", 0, "transient flit drop probability per inter-router link traversal")
		faultCorr  = fs.Float64("faultcorrupt", 0, "transient packet corruption probability per inter-router link traversal")
		faultSeed  = fs.Uint64("faultseed", 1, "fault schedule seed")
		deadRouter = fs.String("deadrouter", "", "router outages: node[@from[:until]], comma-separated (no until = permanent)")
		deadLink   = fs.String("deadlink", "", "directed link outages: src>dst[@from[:until]], comma-separated")
		watchdog   = fs.Int64("watchdog", 0, "stall watchdog window in cycles (0 = auto when faults are on, negative disables)")
		ckptPath   = fs.String("checkpoint", "", "write a checkpoint of the synthetic run to this file at -checkpointat, then keep running")
		ckptAt     = fs.Int64("checkpointat", 0, "cycle to take the -checkpoint at")
		resumePath = fs.String("resume", "", "resume a synthetic run from a -checkpoint file (fabric and traffic config come from the file)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A workload flag the selected workload does not read would be
	// ignored; the defaults are not zero, so ask which flags were set.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	selected := 0
	for _, on := range []bool{*model != "", *coll != "", *ina, *replayPath != ""} {
		if on {
			selected++
		}
	}
	switch {
	case selected > 1:
		return errTwoWorkloads
	case (set["inamode"] || set["inarounds"]) && !*ina:
		return errINAFlags
	case set["rounds"] && *model == "" && *coll == "":
		return errRoundsFlag
	case (set["jobs"] || set["overlap"]) && *model == "":
		return errModelFlags
	case set["algorithm"] && *coll == "":
		return errAlgorithmFlag
	case (selected > 0 || *resumePath != "") && slices.ContainsFunc(trafficFlags, func(f string) bool { return set[f] }):
		return errTrafficFlags
	}

	// Checkpoint/resume covers the synthetic-generator path: workload
	// controllers (pipelines, collectives, INA, replay) hold driver state
	// above the network that snapshots do not capture, and telemetry
	// buffers are observations of one specific run.
	if *ckptPath != "" || *resumePath != "" {
		if *replayPath != "" || *ina || *coll != "" || *model != "" {
			return fmt.Errorf("-checkpoint/-resume apply to the synthetic-traffic path only")
		}
		if *traceOut != "" || *metricsOut != "" {
			return fmt.Errorf("-checkpoint/-resume do not support telemetry")
		}
	}
	if *ckptPath != "" && *ckptAt <= 0 {
		return fmt.Errorf("-checkpoint needs a positive -checkpointat cycle")
	}
	switch {
	case *metricsOut != "" && *epoch <= 0:
		return errNoEpoch
	case *traceOut != "" && *traceEvery == 0:
		return errNoTraceSample
	case *model != "" && *rounds < 1:
		return errModelRounds
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
	cfg.EnableINA = *ina
	if *coll != "" && *collAlg == "fused" {
		// The fused transport reduces in the router stations.
		cfg.EnableINA = true
	}
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
		// The checkpoint carries the capturing run's full configuration;
		// only the result-invariant engine sharding follows this
		// invocation's flags. Everything else is enforced by the
		// config-hash guard inside Restore.
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
	// profile and telemetry writers then flush as usual.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer func() {
		signal.Stop(sig)
		close(sig) // after Stop: releases the handler goroutine
	}()
	go func() {
		if _, ok := <-sig; ok {
			fmt.Fprintln(os.Stderr, "nocsim: interrupt — stopping at the next cycle boundary")
			nw.Engine().Interrupt()
		}
	}()

	// The watchdog arms automatically whenever fault injection is on (the
	// window then defaults to four maximally backed-off retransmission
	// intervals); an explicit positive -watchdog arms it unconditionally and
	// a negative one disables it. A stall propagates as a *sim.StallError —
	// non-zero exit, diagnostic dump — while the deferred writers above
	// still flush the run's artifacts.
	if *watchdog >= 0 && (*watchdog > 0 || nw.FaultInjector() != nil) {
		nw.Engine().SetWatchdog(nw.Watchdog(*watchdog))
	}

	// Select the workload, then run the one tail every workload shares.
	var workloadErr error
	switch {
	case *model != "":
		workloadErr = runPipeline(nw, *model, *jobs, *rounds, *overlap, *maxCycles, w)
	case *coll != "":
		workloadErr = runCollectiveCLI(nw, *coll, *collAlg, *rounds, *maxCycles, w)
	case *ina:
		workloadErr = runINA(nw, *inaMode, *inaRounds, *maxCycles, w)
	case *replayPath != "":
		workloadErr = replay(nw, *replayPath, *maxCycles, w)
	default:
		patternName := *pattern
		gcfg := traffic.GeneratorConfig{
			InjectionRate: *rate,
			PacketFlits:   *flits,
			Warmup:        *warmup,
			Measure:       *measure,
			Seed:          *seed,
		}
		if ck != nil {
			patternName = ck.Pattern
			gcfg = ck.Traffic
		}
		workloadErr = runGenerator(nw, patternName, gcfg, ck, *resumePath, *ckptPath, *ckptAt, *maxCycles, w)
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
	fmt.Fprintf(w, "throughput     %.4f pkts/node/cycle\n", res.Throughput)
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

// parseFaultFlags compiles the fault CLI flags into a fault.Config, nil
// when no fault source was requested (keeping the network bit-identical
// to a fault-free build).
func parseFaultFlags(rate, corrupt float64, seed uint64, deadRouters, deadLinks string) (*fault.Config, error) {
	fc := &fault.Config{Seed: seed, DropRate: rate, CorruptRate: corrupt}
	if deadRouters != "" {
		for _, spec := range strings.Split(deadRouters, ",") {
			name, win, err := parseOutageWindow(strings.TrimSpace(spec))
			if err != nil {
				return nil, fmt.Errorf("deadrouter: %w", err)
			}
			node, err := strconv.Atoi(name)
			if err != nil {
				return nil, fmt.Errorf("deadrouter %q: bad node id: %w", spec, err)
			}
			fc.Routers = append(fc.Routers, fault.RouterOutage{Node: node, Window: win})
		}
	}
	if deadLinks != "" {
		for _, spec := range strings.Split(deadLinks, ",") {
			name, win, err := parseOutageWindow(strings.TrimSpace(spec))
			if err != nil {
				return nil, fmt.Errorf("deadlink: %w", err)
			}
			srcs, dsts, ok := strings.Cut(name, ">")
			if !ok {
				return nil, fmt.Errorf("deadlink %q: want src>dst[@from[:until]]", spec)
			}
			src, err := strconv.Atoi(srcs)
			if err != nil {
				return nil, fmt.Errorf("deadlink %q: bad source node: %w", spec, err)
			}
			dst, err := strconv.Atoi(dsts)
			if err != nil {
				return nil, fmt.Errorf("deadlink %q: bad destination node: %w", spec, err)
			}
			fc.Links = append(fc.Links, fault.LinkOutage{SrcNode: src, DstNode: dst, Window: win})
		}
	}
	if !fc.Enabled() {
		return nil, nil
	}
	return fc, nil
}

// parseOutageWindow splits an outage spec's optional "@from[:until]"
// suffix; no suffix means permanent from cycle 0.
func parseOutageWindow(spec string) (string, fault.Window, error) {
	name, win, found := strings.Cut(spec, "@")
	if !found {
		return name, fault.Window{}, nil
	}
	var w fault.Window
	from, until, hasUntil := strings.Cut(win, ":")
	var err error
	if w.From, err = strconv.ParseInt(from, 10, 64); err != nil {
		return "", w, fmt.Errorf("outage %q: bad from cycle: %w", spec, err)
	}
	if hasUntil {
		if w.Until, err = strconv.ParseInt(until, 10, 64); err != nil {
			return "", w, fmt.Errorf("outage %q: bad until cycle: %w", spec, err)
		}
	}
	return name, w, nil
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
		f, err := os.Create(metricsPath)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		werr := rep.WriteMetricsCSV(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("metrics: %w", werr)
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
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		werr := rep.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("trace: %w", werr)
		}
		fmt.Fprintf(w, "trace          %s (%d events, %d dropped) — load in ui.perfetto.dev\n",
			tracePath, len(rep.Events), rep.DroppedEvents)
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
