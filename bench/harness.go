package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// Time budget rule. The benchmark driver makes 4 + 22 × 6 runs, each a
// whole process with its set-up, and all of them must end inside its
// cap. If they do not, cut the timed ops from suiteTimedOps towards
// minTimedOps before shortening any op below one second, and never size
// an op from a timing taken at run time.
const (
	// suiteTimedOps is how many timed ops a run makes when no -seconds
	// is given.
	suiteTimedOps = 7
	// minTimedOps is the fewest timed ops a -seconds run reports a
	// median of.
	minTimedOps = 5
	// setupReps is how many times a run that reports setup_s sets up, so
	// that setup_s is a median too.
	setupReps = 3
)

// plan says how many ops of each kind one run of a workload makes.
type plan struct {
	// setups is how many times set-up (prepare, warm-up op, forced GC)
	// runs; the last one's op is the one measured.
	setups int
	// timed and traced are the fewest ops of each kind; ops continue
	// until timedSeconds or tracedSeconds have been measured.
	timed, traced               int
	timedSeconds, tracedSeconds float64
	// endToEnd says whether the run reports the end-to-end metrics.
	endToEnd bool
}

// planFor maps the -trace and -seconds flags to a plan: both metric sets
// (the default, trace < 0), end-to-end only (0) or per-layer only (1).
func planFor(trace int, seconds float64) plan {
	if trace == 1 {
		// The timed ops here are only the baseline of the tracing
		// overhead.
		return plan{setups: 1, timed: 3, traced: 1, tracedSeconds: seconds}
	}
	p := plan{setups: setupReps, timed: suiteTimedOps, endToEnd: true}
	if seconds > 0 {
		p.timed, p.timedSeconds = minTimedOps, seconds
	}
	if trace < 0 {
		p.traced = 1
	}
	return p
}

// report is everything one run of one workload measured.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Failures  []string
	// EndToEnd summarizes the timed ops per end-to-end metric; empty when
	// the plan has no timed set (trace-only runs).
	EndToEnd map[string]summary
	// PerLayer holds the traced ops' medians per per-layer metric.
	PerLayer  map[string]float64
	SelfTimes []layerShare
	Spans     []span
}

// repeat runs fn at least min times and, with seconds > 0, until that
// much time has passed; it stops at fn's first error.
func repeat(min int, seconds float64, fn func() error) error {
	start := time.Now()
	for i := 0; i < min || (seconds > 0 && time.Since(start).Seconds() < seconds); i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload measures one workload under a plan. Every op, warm-up
// included, is checked; an op fails when it reports a failure itself or
// when its simulated results differ from the first timed op's.
func runWorkload(w workloadSpec, env environment, p plan) (*report, error) {
	rep := &report{Workload: w.name, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
	record := func(o *observation, kind string) {
		rep.Attempted++
		if len(o.fails) > 0 {
			rep.Failed++
			for _, f := range o.fails {
				rep.Failures = append(rep.Failures, kind+": "+f)
			}
		}
	}

	var run op
	var setupS []float64
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		var err error
		if run, err = w.prepare(env); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		record(run(nil), "warm-up op")
		runtime.GC()
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var timed []sample
	var ref *observation
	err := repeat(p.timed, p.timedSeconds, func() error {
		s, err := timeOp(func() *observation { return run(nil) })
		if err != nil {
			return err
		}
		if ref == nil {
			ref = s.obs
		} else {
			for _, d := range differences(ref, s.obs, true) {
				s.obs.failf("differs from the first timed op: %s", d)
			}
		}
		record(s.obs, "timed op")
		timed = append(timed, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	column := func(f func(sample) float64) []float64 {
		out := make([]float64, len(timed))
		for i, s := range timed {
			out[i] = f(s)
		}
		return out
	}
	wall := column(func(s sample) float64 { return s.wallS })

	if p.traced > 0 {
		perOp := map[string][]float64{}
		_ = repeat(p.traced, p.tracedSeconds, func() error {
			debug.FreeOSMemory()
			tr := newTracer()
			tr.begin("bench.op")
			o := run(tr)
			for len(tr.stack) > 0 {
				tr.end()
			}
			for _, d := range differences(ref, o, true) {
				o.failf("traced op differs from the untraced ops: %s", d)
			}
			shares, err := tr.selfTimes()
			if err != nil {
				o.failf("%v", err)
			}
			record(o, "traced op")
			for k, v := range o.counts {
				perOp[k] = append(perOp[k], v)
			}
			for k, v := range o.times {
				perOp[k] = append(perOp[k], v)
			}
			// What the traced op did beyond the untraced one sits in
			// bench.probe spans; the rest is the same work plus tracing.
			same := tr.total("bench.op") - tr.total("bench.probe")
			if base := median(wall); base > 0 {
				perOp["bench.trace_overhead_pct"] = append(perOp["bench.trace_overhead_pct"], (same-base)/base*100)
			}
			perOp["bench.spans"] = append(perOp["bench.spans"], float64(len(tr.spans)))
			rep.SelfTimes, rep.Spans = shares, tr.spans
			return nil
		})
		for k, vs := range perOp {
			rep.PerLayer[k] = median(vs)
		}
	}

	if p.endToEnd {
		rep.EndToEnd["setup_s"] = summarize(setupS)
		rep.EndToEnd["wall_s"] = summarize(wall)
		rep.EndToEnd["cpu_s"] = summarize(column(func(s sample) float64 { return s.cpuS }))
		rep.EndToEnd["allocs"] = summarize(column(func(s sample) float64 { return s.allocs }))
		rep.EndToEnd["sim_cycles"] = summarize(column(func(s sample) float64 { return s.obs.simCycles }))
		rep.EndToEnd["noc_energy_pj"] = summarize(column(func(s sample) float64 { return s.obs.energyPJ }))
		rep.EndToEnd["peak_rss_mb"] = summarize(column(func(s sample) float64 { return s.rssMB }))
		rep.EndToEnd["fail_share"] = summarize([]float64{float64(rep.Failed) / float64(rep.Attempted)})
	}
	return rep, nil
}
