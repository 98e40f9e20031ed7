package main

import (
	"fmt"
	"runtime"
)

// sizes fixes every workload's inputs. They are constants chosen so one
// op takes between one and two seconds on two cores; an op is never
// sized from a timing taken at run time.
type sizes struct {
	sat8, idle8, mesh32 fabricSize
	paper               paperSize
	mix                 mixSize
}

var fullSizes = sizes{
	sat8:   fabricSize{mesh: 8, rate: 0.30, measure: 9_000, snapshotAt: 4_500},
	idle8:  fabricSize{mesh: 8, rate: 0.005, measure: 300_000},
	mesh32: fabricSize{mesh: 32, rate: 0.02, measure: 1_500},
	paper:  paperSize{rounds: 3, warmPasses: 150},
	// The loss rates are a fifth of nocsim's usual -faultrate 0.01: at 1 %
	// the makespan is set by the unluckiest backoff chain and moves ±20 %
	// with the seed, which no bound the benchmark may declare can absorb.
	mix: mixSize{mesh: 16, inferences: 2, rounds: 4, collectiveRounds: 8,
		backgroundRate: 0.005, backgroundCycles: 2_000, dropRate: 0.002, corruptRate: 0.0005},
}

// tinySizes lets bench_test.go run every workload in well under a second.
var tinySizes = sizes{
	sat8:   fabricSize{mesh: 8, rate: 0.30, measure: 300, snapshotAt: 150},
	idle8:  fabricSize{mesh: 8, rate: 0.005, measure: 3_000},
	mesh32: fabricSize{mesh: 32, rate: 0.02, measure: 100},
	paper:  paperSize{rounds: 1, warmPasses: 2},
	mix: mixSize{mesh: 8, inferences: 2, rounds: 1, collectiveRounds: 2,
		backgroundRate: 0.005, backgroundCycles: 200, dropRate: 0.01, corruptRate: 0.0025},
}

// environment is what a workload's inputs are made from.
type environment struct {
	seed    int64
	sizes   sizes
	scratch string
	// shards is the shard count mesh32 runs with: min(2, nproc).
	shards int
}

// op runs the workload's unit of work once, traced when tr is non-nil.
type op func(tr *tracer) *observation

// workloadSpec is one named set of inputs. prepare does the input generation
// and cache priming of set-up and returns the op; the harness then runs
// the op once untimed to finish set-up.
type workloadSpec struct {
	name    string
	why     string
	prepare func(env environment) (op, error)
}

var workloads = []workloadSpec{
	{
		name: "sat8",
		why:  "Saturated 8x8: ~88% of components evaluated every cycle, so router/link/nic stage code does the work; a faster tick must win here.",
		prepare: func(env environment) (op, error) {
			return func(tr *tracer) *observation { return runFabric(env.sizes.sat8, env.seed, 0, tr) }, nil
		},
	},
	{
		name: "idle8",
		why:  "Idle 8x8: ~94% of evaluations skipped, so sim sleep/wake bookkeeping dominates; shows the cost of dropping the Idler contract.",
		prepare: func(env environment) (op, error) {
			return func(tr *tracer) *observation { return runFabric(env.sizes.idle8, env.seed, 0, tr) }, nil
		},
	},
	{
		name:    "mesh32",
		why:     "32x32 on the sharded engine: barriers, serial sub-phase, noc.New and memory footprint matter; the only place a parallel speed-up can show.",
		prepare: prepareMesh32,
	},
	{
		name:    "paper-cold",
		why:     "Table II, Figs. 7-10 and both full models from scratch: 146 short simulations where noc.New, systolic, core, power and the sweep pool carry the cost.",
		prepare: preparePaperCold,
	},
	{
		name:    "paper-warm",
		why:     "The same artifacts from a primed cache: no network is built, so every engine change should leave it unmoved; cache, key hashing and JSON do the work.",
		prepare: preparePaperWarm,
	},
	{
		name: "model-mix",
		why:  "Two VGG-16 inference jobs, a tree reduce and background traffic on a lossy 16x16 with telemetry: workload, collective, retransmission, fault and telemetry at once.",
		prepare: func(env environment) (op, error) {
			return func(tr *tracer) *observation { return runMix(env.sizes.mix, env.seed, tr) }, nil
		},
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// shardCount is the shard count mesh32 uses on this machine.
func shardCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// prepareMesh32 returns an op whose first run, the warm-up, uses the
// sequential engine and becomes the reference every sharded run must
// reproduce. The traced op also times a sequential run, for the speed-up.
func prepareMesh32(env environment) (op, error) {
	var sequential *observation
	return func(tr *tracer) *observation {
		if sequential == nil {
			sequential = runFabric(env.sizes.mesh32, env.seed, 0, nil)
			return sequential
		}
		o := runFabric(env.sizes.mesh32, env.seed, env.shards, tr)
		for _, d := range differences(sequential, o, false) {
			o.failf("sharded != sequential: %s", d)
		}
		if tr == nil {
			return o
		}
		// The probe has a tracer of its own, so that its totals are not
		// added to the sharded run's.
		tr.begin("bench.probe")
		probeTrace := newTracer()
		probe := runFabric(env.sizes.mesh32, env.seed, 0, probeTrace)
		tr.adopt(probeTrace)
		tr.end()
		if s := o.times["sim.run_s"]; s > 0 {
			o.times["sim.shard_speedup"] = probe.times["sim.run_s"] / s
		}
		return o
	}, nil
}

// preparePaperCold returns an op that holds every run's rendered output
// against the first run's.
func preparePaperCold(env environment) (op, error) {
	var want []byte
	return func(tr *tracer) *observation {
		o, out := runPaperCold(env.sizes.paper, want, tr)
		if want == nil {
			want = out
		}
		return o
	}, nil
}

// preparePaperWarm primes a cache directory with one simulated pass.
func preparePaperWarm(env environment) (op, error) {
	dir, want, err := primeCache(env.sizes.paper, env.scratch)
	if err != nil {
		return nil, err
	}
	return func(tr *tracer) *observation {
		return runPaperWarm(env.sizes.paper, dir, want, tr)
	}, nil
}
