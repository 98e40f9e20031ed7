package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json against the tables the
// program emits from, so neither can change alone.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", m.Command)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q / %q, code %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []manifestMetric, specs []metricSpec, bounded bool) {
		if len(declared) != len(specs) {
			t.Fatalf("%s: %d metrics declared, %d in code", kind, len(declared), len(specs))
		}
		for i, s := range specs {
			d := declared[i]
			if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, d, s)
			}
			if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: name %q or unit %q outside the allowed characters", kind, s.Name, s.Unit)
			}
			if bounded != (d.Bound != nil) || (bounded && *d.Bound != s.Bound) {
				t.Errorf("%s %s: manifest bound %v, code bound %v", kind, s.Name, d.Bound, s.Bound)
			}
			if bounded && (s.Bound <= 0 || s.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
}

func tinyEnv(t *testing.T) environment {
	return environment{seed: 1, sizes: tinySizes, scratch: t.TempDir(), shards: shardCount()}
}

// tinyPlan is the suite's plan with one set-up and one timed op.
var tinyPlan = plan{setups: 1, timed: 1, traced: 1, endToEnd: true}

// TestEveryWorkloadEmitsEveryMetric runs each workload at its tiny size:
// no op may fail (which includes the traced op reproducing the untraced
// op's sim_cycles, noc_energy_pj and every exact count), and the result
// line must carry every declared metric once, with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, tinyEnv(t), tinyPlan)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("failures: %v", rep.Failures)
			}
			if rep.Attempted != 3 {
				t.Errorf("attempted %d ops, want warm-up + timed + traced", rep.Attempted)
			}
			res := resultOf(rep, tinyPlan)
			if len(res.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(endToEnd)+len(perLayer))
			}
			for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				v, ok := res.Metrics[s.Name]
				if !ok || v.Unit != s.Unit {
					t.Errorf("%s: emitted %+v (present %v), want unit %q", s.Name, v, ok, s.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", s.Name, v.Value)
				}
			}
			for k := range rep.PerLayer {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("op reported %s, which no table declares", k)
				}
			}
			for _, name := range []string{"sim_cycles", "noc_energy_pj", "wall_s", "setup_s", "peak_rss_mb", "allocs"} {
				if rep.EndToEnd[name].Median <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.EndToEnd[name].Median)
				}
			}
			if got := rep.PerLayer["bench.spans"]; got < 2 {
				t.Errorf("traced op recorded %v spans", got)
			}
		})
	}
}

// TestCorruptedResultsFail checks that the harness counts a wrong result
// as a failed op: a reduction that disagrees with its oracle, a traced op
// whose simulated result moved, and a cache entry gone missing.
func TestCorruptedResultsFail(t *testing.T) {
	t.Run("oracle", func(t *testing.T) {
		o := newObservation()
		mixVerdict(o, 1, 0)
		if len(o.fails) != 1 {
			t.Fatalf("one flipped row sum gave %d failures", len(o.fails))
		}
		flipped := workloadSpec{name: "flipped", prepare: func(env environment) (op, error) {
			calls := 0
			return func(tr *tracer) *observation {
				o := runFabric(env.sizes.sat8, env.seed, 0, tr)
				if calls++; calls == 2 {
					mixVerdict(o, 0, 1)
				}
				return o
			}, nil
		}}
		rep, err := runWorkload(flipped, tinyEnv(t), tinyPlan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 || rep.EndToEnd["fail_share"].Median != 1.0/3 {
			t.Errorf("failed %d, fail_share %v; want 1 and 1/3", rep.Failed, rep.EndToEnd["fail_share"].Median)
		}
	})
	t.Run("traced differs", func(t *testing.T) {
		moved := workloadSpec{name: "moved", prepare: func(env environment) (op, error) {
			return func(tr *tracer) *observation {
				o := runFabric(env.sizes.sat8, env.seed, 0, tr)
				if tr != nil {
					o.simCycles++
				}
				return o
			}, nil
		}}
		rep, err := runWorkload(moved, tinyEnv(t), tinyPlan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 {
			t.Errorf("failed %d ops, want the traced one: %v", rep.Failed, rep.Failures)
		}
	})
	t.Run("cache miss", func(t *testing.T) {
		env := tinyEnv(t)
		run, err := preparePaperWarm(env)
		if err != nil {
			t.Fatal(err)
		}
		if o := run(nil); len(o.fails) != 0 {
			t.Fatalf("primed cache: %v", o.fails)
		}
		entries, err := filepath.Glob(filepath.Join(env.scratch, "cache-*", "*.json"))
		if err != nil || len(entries) == 0 {
			t.Fatalf("no cache entries: %v", err)
		}
		if err := os.Remove(entries[0]); err != nil {
			t.Fatal(err)
		}
		if o := run(nil); len(o.fails) == 0 || o.counts["experiments.cache_misses"] == 0 {
			t.Errorf("a missing entry went unnoticed: misses %v", o.counts["experiments.cache_misses"])
		}
	})
}

func TestSelfTimesAddUp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.op")
	tr.begin("noc.New")
	tr.end()
	id := tr.begin("sim.Engine.RunUntil")
	tr.end()
	tr.spans[id].End = tr.spans[id].Start + 1000
	tick := tr.leaf("workload.Scheduler.Tick", id, 400)
	tr.leaf("traffic.Tick", tick, 150)
	tr.end()
	tr.spans[root].End = tr.spans[root].Start + 5000
	rows, err := tr.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	self := map[string]float64{}
	for _, r := range rows {
		self[r.Layer] = r.SelfS * 1e9
	}
	if self["sim"] != 600 || self["workload"] != 250 || self["traffic"] != 150 {
		t.Errorf("self times %v", self)
	}
	// A child longer than its parent cannot be: shares no longer add up.
	tr.leaf("traffic.Tick", tick, 100_000)
	tr.spans[root].End = tr.spans[root].Start + 1
	if _, err := tr.selfTimes(); err == nil {
		t.Error("inconsistent spans passed the 100±1 check")
	}
}

// TestQuartilesMatchPython pins the cut points to the values Python's
// statistics.quantiles(values, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("got %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// TestPlans pins the op counts of the three ways a workload is run.
func TestPlans(t *testing.T) {
	for _, c := range []struct {
		trace   int
		seconds float64
		want    plan
	}{
		{-1, 0, plan{setups: setupReps, timed: suiteTimedOps, traced: 1, endToEnd: true}},
		{0, 10, plan{setups: setupReps, timed: minTimedOps, timedSeconds: 10, endToEnd: true}},
		{1, 10, plan{setups: 1, timed: 3, traced: 1, tracedSeconds: 10}},
	} {
		if got := planFor(c.trace, c.seconds); got != c.want {
			t.Errorf("planFor(%d, %v) = %+v, want %+v", c.trace, c.seconds, got, c.want)
		}
	}
}
