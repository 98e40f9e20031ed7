// Package core is the library facade: it ties the network, systolic
// dataflow, power and analytic models together into single-call layer runs
// and RU-vs-gather comparisons — the API the examples, CLI tools and
// benchmark harness consume.
package core

import (
	"fmt"

	"gathernoc/internal/analytic"
	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/power"
	"gathernoc/internal/round"
	"gathernoc/internal/systolic"
	"gathernoc/internal/workload"
)

// Options tune a layer run. The zero value selects the paper's defaults.
type Options struct {
	// Rounds is the window of a layer run: its first Rounds rounds
	// (0 = every round, the whole layer; systolic.Config.MaxRounds).
	Rounds int
	// MutateNetwork, when non-nil, adjusts the network configuration
	// before construction (ablations).
	MutateNetwork func(*noc.Config)
	// MutateSystolic, when non-nil, adjusts the systolic configuration.
	MutateSystolic func(*systolic.Config)
}

// maxCycles is the cycle budget of one layer run, the cycles it simulates
// and those it accounts by proof or replay together: a whole VGG-16
// convolution on a 4×4 mesh is about 120M cycles long.
const maxCycles = 1_000_000_000

// networkConfig and systolicConfig materialize the configurations of one
// layer run: defaults, then the Options' mutators. RunLayer simulates what
// they return and ComparisonKey hashes it, so closures in Options are keyed
// by effect. Two functions, not one returning both: a comparison has one
// network configuration and two systolic ones, and a combined helper called
// once per mode costs ComparisonKey a second heap-allocated noc.Config per
// key (+1.2 % allocs on the benchmark's paper-warm workload).
// The mutators get a copy to change: the value they are handed a pointer
// to goes to the heap, so only a call that has one pays for it.
func (o Options) networkConfig(rows, cols int) noc.Config {
	cfg := noc.DefaultConfig(rows, cols)
	if o.MutateNetwork != nil {
		mutated := cfg
		o.MutateNetwork(&mutated)
		return mutated
	}
	return cfg
}

func (o Options) systolicConfig(layer cnn.LayerConfig, mode systolic.Mode) systolic.Config {
	cfg := systolic.Config{
		Layer:     layer,
		Mode:      mode,
		TMAC:      cnn.TMAC,
		MaxRounds: o.Rounds,
	}
	if o.MutateSystolic != nil {
		mutated := cfg
		o.MutateSystolic(&mutated)
		return mutated
	}
	return cfg
}

// LayerReport is the outcome of one layer run in one collection mode.
type LayerReport struct {
	// Result is the systolic run summary (latencies, protocol counters,
	// integrity checks).
	Result *systolic.Result
	// Events are the power-model inputs for the rounds the run covered.
	Events power.Events
	// Energy is the energy/power report over those rounds.
	Energy power.Report
	// NetworkConfig echoes the configuration used.
	NetworkConfig noc.Config
}

// RunLayer executes one convolution layer on a rows×cols mesh in the given
// collection mode and returns latency and energy results.
func RunLayer(rows, cols int, layer cnn.LayerConfig, mode systolic.Mode, opts Options) (*LayerReport, error) {
	res, err := Simulate(nil, rows, cols, layer, mode, opts)
	if err != nil {
		return nil, err
	}
	return report(opts.networkConfig(rows, cols), layer, mode, opts, res), nil
}

// trajectoryKey is what the collection of a layer run depends on besides
// the fabric's state at its first release and its release cycles
// (round.Trajectories): the materialized configurations less the layer and
// T_MAC, which set only the compute time before each release and the
// round count. The network enters as its Config, which separates what its
// hash would merge.
type trajectoryKey struct {
	net noc.Config
	sys systolic.Config
}

// Simulate runs one layer in one collection mode and returns what the run
// produced, before any derivation (Compare derives a comparison from two
// of them). With t non-nil the run follows t: it replays a trajectory an
// earlier run of the same configurations recorded there, when that one
// provably stands for it, and otherwise simulates and records its own
// (round.Loop.Join); the Result is the one simulating gives either way.
func Simulate(t *round.Trajectories, rows, cols int, layer cnn.LayerConfig, mode systolic.Mode, opts Options) (*systolic.Result, error) {
	cfg := opts.networkConfig(rows, cols)
	nw, err := noc.Acquire(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// simulate owns the network for the length of the run. Release parks a
	// sequential fabric that finished cleanly for the next run of the same
	// configuration and closes any other (stopping its shard workers).
	defer nw.Release()
	sc := opts.systolicConfig(layer, mode)
	ctl, err := systolic.NewController(nw, sc)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if t != nil {
		sc.Layer, sc.TMAC = cnn.LayerConfig{}, 0
		ctl.Join(t, trajectoryKey{net: cfg, sys: sc})
		defer ctl.Leave()
	}
	if _, err := workload.Run(nw, ctl, maxCycles); err != nil {
		return nil, fmt.Errorf("core: systolic: %s %s on %dx%d: %w", layer.Name, mode, rows, cols, err)
	}
	res := ctl.Result()
	if res.PayloadErrors != 0 {
		return nil, fmt.Errorf("core: %s/%s on %dx%d: %d payload integrity errors",
			layer.Name, mode, rows, cols, res.PayloadErrors)
	}
	return res, nil
}

// report derives a run's LayerReport from its Record: it writes the echoes
// of the run's parameters into res and computes the power-model inputs and
// the energy report.
func report(cfg noc.Config, layer cnn.LayerConfig, mode systolic.Mode, opts Options, res *systolic.Result) *LayerReport {
	sc := opts.systolicConfig(layer, mode)
	res.Layer, res.Mode, res.Dataflow, res.Rows, res.Cols = sc.Layer, sc.Mode, sc.Dataflow, cfg.Rows, cfg.Cols
	events := NoCEvents(res.Activity)
	events.StreamHops = res.StreamHops
	events.MACs = res.MACs
	return &LayerReport{
		Result:        res,
		Events:        events,
		Energy:        power.Compute(events, power.DefaultCoefficients(), res.MeasuredCycles, 1.0),
		NetworkConfig: cfg,
	}
}

// NoCEvents converts a network's activity counts into the power model's
// event record; the systolic-side counts (StreamHops, MACs) stay zero.
func NoCEvents(a noc.Activity) power.Events {
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

// Comparison holds matched RU and gather runs of the same layer plus the
// derived improvement figures.
type Comparison struct {
	// RU and Gather are the two runs.
	RU     *LayerReport
	Gather *LayerReport
	// LatencyImprovementPct is Eq. (4)'s form: (RU − G) / G × 100 over
	// the runs' latencies, whole-layer by default (Figs. 7/8 and Table
	// II's "Simulated" row).
	LatencyImprovementPct float64
	// PowerImprovementPct is the NoC dynamic-energy saving
	// (RU − G) / RU × 100 (Figs. 9/10).
	PowerImprovementPct float64
	// EstimatedImprovementPct is Eq. (4) with ideal terms (Table II's
	// "Estimated" row).
	EstimatedImprovementPct float64
}

// CompareLayer runs the layer in both collection modes and derives the
// improvement figures.
func CompareLayer(rows, cols int, layer cnn.LayerConfig, opts Options) (*Comparison, error) {
	ru, err := Simulate(nil, rows, cols, layer, systolic.RepetitiveUnicast, opts)
	if err != nil {
		return nil, err
	}
	g, err := Simulate(nil, rows, cols, layer, systolic.GatherMode, opts)
	if err != nil {
		return nil, err
	}
	return Compare(rows, cols, layer, opts, ru, g), nil
}

// Compare derives the comparison of the CompareLayer call with the same
// arguments from its two runs, of which only the Records are read: the
// echoes, power-model inputs, energy reports and improvement figures are
// all computed here, for a fresh run and a stored Record alike. It writes
// the echoes into ru and g, which the comparison keeps.
func Compare(rows, cols int, layer cnn.LayerConfig, opts Options, ru, g *systolic.Result) *Comparison {
	cfg := opts.networkConfig(rows, cols)
	c := &Comparison{
		RU:     report(cfg, layer, systolic.RepetitiveUnicast, opts, ru),
		Gather: report(cfg, layer, systolic.GatherMode, opts, g),
	}
	if g.MeasuredCycles > 0 {
		c.LatencyImprovementPct = float64(ru.MeasuredCycles-g.MeasuredCycles) / float64(g.MeasuredCycles) * 100
	}
	c.PowerImprovementPct = power.ImprovementPercent(c.RU.Energy.NoCPJ, c.Gather.Energy.NoCPJ)
	c.EstimatedImprovementPct = EstimateParams(cfg, layer, cnn.TMAC).Improvement()
	return c
}

// EstimateParams builds the Eq. (2)–(4) parameter set matching a network
// configuration and layer (ideal terms: tδ = ΔR = ΔG = 0).
func EstimateParams(cfg noc.Config, layer cnn.LayerConfig, tmac int) analytic.Params {
	format, err := cfg.Format()
	gflits := 4
	if err == nil {
		gflits = format.GatherFlits(cfg.EffectiveGatherCapacity())
	}
	return analytic.Params{
		N:            cfg.Rows,
		M:            cfg.Cols,
		Kappa:        cfg.HeaderHopLatency(),
		UnicastFlits: cfg.UnicastFlits,
		GatherFlits:  gflits,
		Eta:          cfg.EffectiveGatherCapacity(),
		TMAC:         tmac,
		CRR:          layer.MACsPerPE(),
	}
}
