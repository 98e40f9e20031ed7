// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the simulator sees, and per-module metrics
// taken from outside, by timing and counting around calls into the
// public functions of internal/*. See README.md beside this file.
//
//	bench                       every workload, each in a child process
//	bench -aa                   the whole suite twice, compared against the bounds
//	bench -workload W           one workload in this process
//	bench -workload W -seed N -seconds S -trace 0|1
//	                            what the benchmark driver runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	seed := flag.Int64("seed", 1, "seed for every Seed field of the generated inputs")
	name := flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
	out := flag.String("out", "", "directory to write each workload's spans to, as <workload>.spans.json")
	aa := flag.Bool("aa", false, "run the suite twice and compare the two against the bounds")
	seconds := flag.Float64("seconds", 0, "measure for this long (default: a fixed op count)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (default: both)")
	flag.Parse()

	if err := run(*seed, *name, *out, *aa, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// envBlock describes where the numbers were taken.
type envBlock struct {
	Go         string
	NProc      int
	GOMAXPROCS int
	// Shards is the shard count mesh32 runs with; Workers the sweep pool
	// size paper-cold gets from Workers=0.
	Shards  int
	Workers int
	Commit  string
	Seed    int64
}

func environmentBlock(seed int64) (envBlock, error) {
	e := envBlock{
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     shardCount(),
		Workers:    runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Seed:       seed,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	// More runnable goroutines than cores turns the shard and sweep
	// timings into scheduler noise.
	if e.Workers > e.NProc || e.Shards > e.NProc {
		return e, fmt.Errorf("refusing to run %d workers and %d shards on %d cores; lower GOMAXPROCS",
			e.Workers, e.Shards, e.NProc)
	}
	return e, nil
}

func (e envBlock) String() string {
	return fmt.Sprintf("env go=%s nproc=%d gomaxprocs=%d shards=%d workers=%d commit=%s seed=%d",
		e.Go, e.NProc, e.GOMAXPROCS, e.Shards, e.Workers, e.Commit, e.Seed)
}

func run(seed int64, name, out string, aa bool, seconds float64, trace int) error {
	env, err := environmentBlock(seed)
	if err != nil {
		return err
	}
	if name != "" {
		return runOne(env, name, out, seconds, trace)
	}
	fmt.Println(env)
	first, err := runSuite(env, out, seconds, trace)
	if err != nil {
		return err
	}
	if !aa {
		return nil
	}
	second, err := runSuite(env, out, seconds, trace)
	if err != nil {
		return err
	}
	return compareAA(os.Stdout, first, second)
}

// result is the last line a run prints: the benchmark driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process and prints its tables and
// result line.
func runOne(env envBlock, name, out string, seconds float64, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	// Under TMPDIR, which run.sh points inside the checkout.
	scratch, err := os.MkdirTemp("", "gathernoc-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	p := planFor(trace, seconds)
	rep, err := runWorkload(w, environment{seed: env.Seed, sizes: fullSizes, scratch: scratch, shards: env.Shards}, p)
	if err != nil {
		return err
	}
	fmt.Println(env)
	printReport(os.Stdout, w, rep)
	if out != "" && len(rep.Spans) > 0 {
		if err := writeSpans(out, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultOf(rep, p))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed a correctness check", name, rep.Failed, rep.Attempted)
	}
	return nil
}

// resultOf builds the result line: every end-to-end metric when the plan
// reports them, every per-layer metric when it traced.
func resultOf(rep *report, p plan) result {
	res := result{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	if p.endToEnd {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{rep.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	if p.traced > 0 {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{rep.PerLayer[m.Name], m.Unit}
		}
	}
	return res
}

func printReport(w io.Writer, wl workloadSpec, rep *report) {
	fmt.Fprintf(w, "workload %s: %s\n", wl.name, wl.why)
	if len(rep.EndToEnd) > 0 {
		fmt.Fprintf(w, "  end-to-end (timed ops)\n")
		fmt.Fprintf(w, "  %-16s %-9s %-10s %14s %14s %14s %12s %3s\n",
			"name", "unit", "kind", "median", "min", "max", "iqr", "n")
		specs := append(append([]metricSpec(nil), endToEnd...),
			metricSpec{Name: "fail_share", Unit: "ratio", Kind: "count"})
		for _, m := range specs {
			s := rep.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-16s %-9s %-10s %14.6g %14.6g %14.6g %12.4g %3d\n",
				m.Name, m.Unit, m.Kind, s.Median, s.Min, s.Max, s.IQR, s.N)
		}
	}
	if len(rep.PerLayer) > 0 {
		fmt.Fprintf(w, "  per-layer (traced op; modules the workload does not use are left out)\n")
		for _, m := range perLayer {
			if v, ok := rep.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-34s %-15s %-10s %16.6g\n", m.Name, m.Unit, m.Kind, v)
			}
		}
		fmt.Fprintf(w, "  self time by layer (traced op, probes included)\n")
		for _, r := range rep.SelfTimes {
			fmt.Fprintf(w, "  %-12s %10.4f s %6.1f %%\n", r.Layer, r.SelfS, r.Share)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

func writeSpans(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rep.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+".spans.json"), data, 0o644)
}

// runSuite runs every workload in its own child process, so one
// workload's heap, caches and peak RSS never reach the next, and
// collects each child's result line.
func runSuite(env envBlock, out string, seconds float64, trace int) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := map[string]result{}
	failed := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(env.Seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
		// The child's env line repeats the parent's; its result line is
		// for the parent.
		for _, l := range lines[:len(lines)-1] {
			if !strings.HasPrefix(l, "env ") {
				fmt.Println(l)
			}
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: no result line (%v): %w", w.name, runErr, err)
		}
		failed += res.Failed
		results[w.name] = res
	}
	if failed > 0 {
		return results, fmt.Errorf("%d ops failed a correctness check", failed)
	}
	return results, nil
}

// compareAA prints, per workload and end-to-end metric, how far two runs
// of the same code are apart as a share of the first, beside the metric's
// bound, and fails when any pair is further apart than its bound: such a
// bound cannot tell a regression from noise.
func compareAA(w io.Writer, first, second map[string]result) error {
	fmt.Fprintf(w, "A/A: two runs of the same code\n")
	fmt.Fprintf(w, "  %-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	var over []string
	names := make([]string, 0, len(first))
	for n := range first {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, m := range endToEnd {
			a, b := first[n].Metrics[m.Name].Value, second[n].Metrics[m.Name].Value
			diff := 0.0
			if a != 0 {
				diff = math.Abs(b-a) / math.Abs(a)
			}
			mark := ""
			if diff > m.Bound {
				mark = "  OVER"
				over = append(over, n+"/"+m.Name)
			}
			fmt.Fprintf(w, "  %-12s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				n, m.Name, a, b, diff*100, m.Bound*100, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A difference over the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
