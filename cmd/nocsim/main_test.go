package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gathernoc/internal/collective"
	"gathernoc/internal/sim"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/traffic"
)

func TestRunSynthetic(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-rows", "4", "-cols", "4", "-pattern", "uniform",
		"-rate", "0.02", "-warmup", "100", "-measure", "500",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The generator ticks in every cycle, so a fabric it drives never jumps.
	for _, frag := range []string{"mesh", "injected", "received", "latency", "throughput", "% slept), jumped 0 of ", " cycles in 0 jumps"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunAllPatterns(t *testing.T) {
	for _, p := range []string{"uniform", "transpose", "bitcomplement", "hotspot"} {
		var b strings.Builder
		err := run([]string{
			"-rows", "4", "-cols", "4", "-pattern", p,
			"-rate", "0.01", "-warmup", "50", "-measure", "200",
		}, &b)
		if err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestRunTorusSynthetic(t *testing.T) {
	for _, routing := range []string{"xy", "oddeven", "westfirst"} {
		var b strings.Builder
		err := run([]string{
			"-topology", "torus", "-routing", routing,
			"-rows", "4", "-cols", "4", "-pattern", "uniform",
			"-rate", "0.02", "-warmup", "100", "-measure", "400",
		}, &b)
		if err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		if !strings.Contains(b.String(), "torus") {
			t.Errorf("%s: output missing fabric name:\n%s", routing, b.String())
		}
	}
}

func TestRunTorusINA(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-topology", "torus", "-rows", "4", "-cols", "4",
		"-ina", "-inamode", "ina", "-inarounds", "2",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "oracle         exact row sums") {
		t.Errorf("output missing oracle confirmation:\n%s", b.String())
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-pattern", "bogus"},
		{"-rows", "0"},
		{"-rate", "2.0"},
		{"-vcs", "0"},
		{"-topology", "hypercube"},
		{"-routing", "zigzag"},
		{"-topology", "torus", "-vcs", "1"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// Flag values that used to exit 0 having written no file, having run
	// one round where -3 were asked for, or having ignored a workload flag.
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want error
	}{
		{[]string{"-measure", "10", "-metrics", filepath.Join(dir, "m.csv"), "-epoch", "0"}, errNoEpoch},
		{[]string{"-measure", "10", "-trace", filepath.Join(dir, "t.json"), "-tracesample", "0"}, errNoTraceSample},
		{[]string{"-model", "alexnet", "-rounds", "-3"}, errModelRounds},
		{[]string{"-model", "alexnet", "-rounds", "0"}, errModelRounds},
		// Workload flags the selected workload would ignore.
		{[]string{"-inamode", "gather"}, errINAFlags},
		{[]string{"-inarounds", "3"}, errINAFlags},
		{[]string{"-ina", "-rounds", "3"}, errRoundsFlag},
		{[]string{"-rounds", "3"}, errRoundsFlag},
		{[]string{"-model", "alexnet", "-ina", "-jobs", "2"}, errTwoWorkloads},
		{[]string{"-collective", "reduce", "-replay", filepath.Join(dir, "none.trace")}, errTwoWorkloads},
		{[]string{"-ina", "-replay", filepath.Join(dir, "none.trace")}, errTwoWorkloads},
	} {
		var b strings.Builder
		if err := run(c.args, &b); !errors.Is(err, c.want) {
			t.Errorf("args %v: err %v, want %v", c.args, err, c.want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected runs wrote %d files", len(entries))
	}
}

// TestRunRefusesFlagsTheWorkloadIgnores: a workload flag that the selected
// workload does not read is refused with a named error before anything
// runs, whichever other workload is selected.
func TestRunRefusesFlagsTheWorkloadIgnores(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "none.trace")
	for _, c := range []struct {
		workload []string
		flag     []string
		want     error
	}{
		{nil, []string{"-jobs", "2"}, errModelFlags},
		{nil, []string{"-overlap"}, errModelFlags},
		{[]string{"-collective", "reduce"}, []string{"-jobs", "2"}, errModelFlags},
		{[]string{"-ina"}, []string{"-overlap"}, errModelFlags},
		{nil, []string{"-algorithm", "flat"}, errAlgorithmFlag},
		{[]string{"-model", "alexnet"}, []string{"-algorithm", "tree"}, errAlgorithmFlag},
		{[]string{"-ina"}, []string{"-algorithm", "fused"}, errAlgorithmFlag},
	} {
		args := append(append([]string(nil), c.workload...), c.flag...)
		if err := run(args, new(strings.Builder)); !errors.Is(err, c.want) {
			t.Errorf("args %v: err %v, want %v", args, err, c.want)
		}
	}
	traffic := [][]string{{"-pattern", "transpose"}, {"-rate", "0.1"}, {"-flits", "4"},
		{"-warmup", "10"}, {"-measure", "10"}, {"-seed", "2"}}
	workloads := [][]string{{"-model", "alexnet"}, {"-collective", "allreduce"}, {"-ina"},
		{"-replay", trace}, {"-resume", trace}}
	for _, w := range workloads {
		for _, f := range traffic {
			args := append(append([]string(nil), w...), f...)
			if err := run(args, new(strings.Builder)); !errors.Is(err, errTrafficFlags) {
				t.Errorf("args %v: err %v, want %v", args, err, errTrafficFlags)
			}
		}
	}
}

func TestRunTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	events := []traffic.Event{
		{Cycle: 0, Type: traffic.EventUnicast, Src: 0, Dst: 5, Seq: 1, Value: 9},
		{Cycle: 3, Type: traffic.EventUnicast, Src: 1, Dst: 6, Seq: 2, Value: 8},
	}
	if err := traffic.Write(f, events); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var b strings.Builder
	if err := run([]string{"-rows", "4", "-cols", "4", "-replay", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "replayed       2 events") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestRunINA(t *testing.T) {
	for _, mode := range []string{"unicast", "gather", "ina"} {
		var b strings.Builder
		err := run([]string{
			"-rows", "4", "-cols", "4", "-ina", "-inamode", mode, "-inarounds", "2",
		}, &b)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		out := b.String()
		for _, frag := range []string{"scheme " + mode, "round latency", "sink flits", "exact row sums"} {
			if !strings.Contains(out, frag) {
				t.Errorf("%s output missing %q:\n%s", mode, frag, out)
			}
		}
	}
}

// TestRunCollective smokes the -collective CLI path over every op and
// transport on both topologies, asserting the oracle verdict in the
// output.
func TestRunCollective(t *testing.T) {
	for _, topo := range []string{"mesh", "torus"} {
		for _, op := range []string{"reduce", "bcast", "allreduce"} {
			for _, alg := range []string{"tree", "flat", "fused"} {
				var b strings.Builder
				err := run([]string{
					"-rows", "4", "-cols", "4", "-topology", topo, "-routing", "xy",
					"-collective", op, "-algorithm", alg, "-rounds", "1",
				}, &b)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", topo, op, alg, err)
				}
				out := b.String()
				for _, frag := range []string{"collective " + op + "/" + alg, "oracle         exact", "root flits"} {
					if !strings.Contains(out, frag) {
						t.Errorf("%s/%s/%s output missing %q:\n%s", topo, op, alg, frag, out)
					}
				}
			}
		}
	}
}

func TestRunCollectiveRejectsBadNames(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-collective", "bogus"}, &b); err == nil {
		t.Error("bogus -collective accepted")
	}
	if err := run([]string{"-collective", "reduce", "-algorithm", "bogus"}, &b); err == nil {
		t.Error("bogus -algorithm accepted")
	}
}

func TestRunINARejectsBadMode(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-ina", "-inamode", "bogus"}, &b); err == nil {
		t.Error("bogus -inamode accepted")
	}
}

func TestRunTraceMissingFile(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-replay", "/nonexistent/file"}, &b); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestRunTelemetryExports is the end-to-end observability smoke: an 8x8
// INA run with both exports on must leave a Chrome trace that parses as
// JSON with job/phase-tagged events and a metrics CSV whose first and last
// epochs hold exactly sources x fields rows (the ones between at most that
// many) for the epoch length requested.
func TestRunTelemetryExports(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.csv")
	var b strings.Builder
	err := run([]string{
		"-rows", "8", "-cols", "8", "-ina", "-inamode", "ina", "-inarounds", "2",
		"-trace", tracePath, "-metrics", metricsPath,
		"-epoch", "64", "-tracesample", "1",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"metrics        " + metricsPath, "trace          " + tracePath, "0 dropped"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "overwritten") {
		t.Errorf("a run inside the metrics window reports overwritten epochs:\n%s", out)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid Chrome Trace JSON: %v", err)
	}
	phases := map[string]int{}
	merges := 0
	for _, ev := range trace.TraceEvents {
		phases[ev.Ph]++
		if ev.Name == "ina-merge" {
			merges++
		}
	}
	if phases["b"] == 0 || phases["e"] == 0 || phases["X"] == 0 {
		t.Errorf("trace lacks packet spans or stage slices: %v", phases)
	}
	if merges == 0 {
		t.Error("INA run traced no ina-merge instants")
	}

	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pts []telemetry.MetricPoint
	err = telemetry.ScanMetricsCSV(f, func(p *telemetry.MetricPoint) error {
		pts = append(pts, *p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	epochs := map[int64]int64{}
	perEpoch := map[int64]int{}
	for _, p := range pts {
		epochs[p.Epoch] = p.Cycle
		perEpoch[p.Epoch]++
	}
	if len(epochs) == 0 {
		t.Fatal("metrics CSV has no epochs")
	}
	// The CSV is sparse: the first and last epochs hold a row for every
	// source and field, the ones between only their non-zero values, and
	// the epochs are the run from the first to the last.
	type pair struct {
		kind  string
		id    int
		field string
	}
	pairs := map[pair]bool{}
	for _, p := range pts {
		pairs[pair{p.Kind, p.ID, p.Field}] = true
	}
	first, last := pts[0].Epoch, pts[len(pts)-1].Epoch
	for _, e := range []int64{first, last} {
		if perEpoch[e] != len(pairs) {
			t.Errorf("epoch %d has %d rows, want one per source and field = %d", e, perEpoch[e], len(pairs))
		}
	}
	for e, n := range perEpoch {
		if e < first || e > last {
			t.Errorf("epoch %d lies outside [%d, %d]", e, first, last)
		}
		if n > len(pairs) {
			t.Errorf("epoch %d has %d rows, more than the %d sources x fields", e, n, len(pairs))
		}
	}
	var n int
	if i := strings.Index(out, metricsPath+" ("); i < 0 {
		t.Errorf("no metrics line in output:\n%s", out)
	} else if _, err := fmt.Sscanf(out[i+len(metricsPath)+2:], "%d epochs", &n); err != nil || int64(n) != last-first+1 {
		t.Errorf("metrics line counts %d epochs (%v), the CSV spans %d", n, err, last-first+1)
	}
	// Every full epoch must end on a 64-cycle boundary; only the flushed
	// final partial epoch may not.
	for e, cyc := range epochs {
		if e != last && (cyc+1)%64 != 0 {
			t.Errorf("epoch %d ends at cycle %d, not a 64-cycle boundary", e, cyc)
		}
	}
}

// TestRunMetricsNamesOverwrittenEpochs: a run longer than the 1024-epoch
// window keeps only its newest epochs, and the metrics line says which
// ones the file lacks instead of reading like the whole run.
func TestRunMetricsNamesOverwrittenEpochs(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.csv")
	var b strings.Builder
	err := run([]string{
		"-rows", "4", "-cols", "4", "-rate", "0.02", "-warmup", "0", "-measure", "4500",
		"-epoch", "4", "-metrics", metricsPath,
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	first := int64(-1)
	if err := telemetry.ScanMetricsCSV(f, func(p *telemetry.MetricPoint) error {
		if first < 0 {
			first = p.Epoch
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first <= 0 {
		t.Fatalf("the CSV starts at epoch %d; the run must outlast the window", first)
	}
	want := fmt.Sprintf("(1024 epochs x 205 sources, epoch 4 cycles; epochs 0–%d overwritten (window 1024))", first-1)
	if out := b.String(); !strings.Contains(out, "metrics        "+metricsPath+" "+want) {
		t.Errorf("metrics line does not name the overwritten epochs, want %q:\n%s", want, out)
	}
}

func TestRunPipelineModel(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "alexnet", "-rounds", "1"},
		{"-model", "alexnet", "-rounds", "1", "-jobs", "2", "-overlap"},
		{"-model", "alexnet", "-rounds", "1", "-topology", "torus"},
	} {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		out := b.String()
		for _, frag := range []string{"alexnet", "oracle         exact", "fairness", "cycles"} {
			if frag == "fairness" && !strings.Contains(strings.Join(args, " "), "-jobs") {
				continue
			}
			if !strings.Contains(out, frag) {
				t.Errorf("%v: output missing %q:\n%s", args, frag, out)
			}
		}
	}
	if err := run([]string{"-model", "lenet"}, &strings.Builder{}); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestRunFaultSmoke drives the synthetic workload over lossy links: the
// run must complete (payload-less synthetic packets simply die; nothing
// retransmits them, so the network drains) and report the fault
// accounting line.
func TestRunFaultSmoke(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-rows", "4", "-cols", "4", "-pattern", "uniform",
		"-rate", "0.02", "-warmup", "100", "-measure", "500",
		"-faultrate", "0.01", "-faultcorrupt", "0.005",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "faults") {
		t.Errorf("output missing fault summary:\n%s", b.String())
	}
}

// TestRunINAFaultRecovery checks the reliability path end to end from the
// CLI: an INA accumulation run over lossy links must finish oracle-exact,
// with the retransmissions that paid for it visible in the summary.
func TestRunINAFaultRecovery(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-rows", "4", "-cols", "4", "-ina", "-inamode", "ina", "-inarounds", "3",
		"-faultrate", "0.05", "-faultseed", "9",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "oracle         exact row sums") {
		t.Errorf("lossy INA run not oracle-exact:\n%s", out)
	}
	if !strings.Contains(out, "faults") {
		t.Errorf("output missing fault summary:\n%s", out)
	}
}

// TestRunWatchdogPartition seeds a permanent router outage that wedges the
// accumulation workload and expects the auto-armed watchdog to convert
// the hang into a stall error carrying the diagnostic dump.
func TestRunWatchdogPartition(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-rows", "4", "-cols", "4", "-ina", "-inamode", "unicast", "-inarounds", "1",
		"-deadrouter", "5", "-watchdog", "2000",
	}, &b)
	if err == nil {
		t.Fatalf("partitioned run completed:\n%s", b.String())
	}
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("want sim.ErrStalled, got %v", err)
	}
	if !strings.Contains(err.Error(), "fault totals") {
		t.Errorf("stall error missing diagnostic dump: %v", err)
	}
}

// TestRunLossyMulticastSaysWhy: a collective whose broadcast leg cannot
// survive flit loss is refused before the run with the named error, not
// left to the watchdog's "no forward progress"; main turns any error from
// run into exit status 1. The flat transport of the same op is accepted.
func TestRunLossyMulticastSaysWhy(t *testing.T) {
	args := []string{"-rows", "4", "-cols", "4", "-collective", "allreduce", "-rounds", "1", "-faultrate", "0.01"}
	var b strings.Builder
	err := run(append(args, "-algorithm", "tree"), &b)
	if !errors.Is(err, collective.ErrLossyMulticast) {
		t.Fatalf("want collective.ErrLossyMulticast, got %v", err)
	}
	for _, frag := range []string{"multicast", "allreduce/tree", "drop rate 0.01"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
	if err := run(append(args, "-algorithm", "flat"), &b); err != nil {
		t.Errorf("flat all-reduce on a lossy fabric refused: %v", err)
	}
}

// TestRunRejectsBadFaultSpecs pins the outage spec parser's error paths.
func TestRunRejectsBadFaultSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-deadrouter", "x"},
		{"-deadrouter", "5@y"},
		{"-deadrouter", "99"},
		{"-deadlink", "5"},
		{"-deadlink", "0>x"},
		{"-deadlink", "0>1@3:z"},
		{"-faultrate", "1.5"},
	} {
		var b strings.Builder
		if err := run(append([]string{"-rows", "4", "-cols", "4"}, args...), &b); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
