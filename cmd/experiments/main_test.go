package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleArtifact(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig1"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== fig1 ==") || !strings.Contains(out, "15 hops") {
		t.Errorf("output missing fig1 content:\n%s", out)
	}
}

func TestRunStaticTables(t *testing.T) {
	for _, exp := range []string{"table1", "table3"} {
		var b strings.Builder
		if err := run(context.Background(), []string{"-exp", exp}, &b, io.Discard); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(b.String(), "== "+exp+" ==") {
			t.Errorf("%s header missing", exp)
		}
	}
}

// A comma-separated -exp prints the named artifacts in the order -exp all
// does, and one unknown name among them is an error before anything runs.
func TestRunArtifactList(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "table3,fig1,table1"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	t1, f1, t3 := strings.Index(out, "== table1 =="), strings.Index(out, "== fig1 =="), strings.Index(out, "== table3 ==")
	if t1 < 0 || !(t1 < t3 && t3 < f1) {
		t.Errorf("artifacts missing or out of order (table1 at %d, table3 at %d, fig1 at %d):\n%s", t1, t3, f1, out)
	}
	b.Reset()
	err := run(context.Background(), []string{"-exp", "table1,nope"}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) || b.Len() != 0 {
		t.Errorf("err = %v with %d bytes printed, want an unknown-experiment error and no output", err, b.Len())
	}
}

func TestRunSimulatedArtifact(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "table2"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Estimated") || !strings.Contains(out, "Simulated") {
		t.Errorf("table2 output incomplete:\n%s", out)
	}
}

func TestRunParallelWorkersMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; internal/experiments covers sweep determinism")
	}
	var serial, parallel strings.Builder
	if err := run(context.Background(), []string{"-exp", "table2", "-workers", "1"}, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-exp", "table2", "-workers", "4"}, &parallel, io.Discard); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("worker count changed output:\nserial:\n%s\nparallel:\n%s", serial.String(), parallel.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), []string{"-exp", "nope"}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown-experiment error", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &b, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunJSONFormat(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig1", "-format", "json"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out map[string]struct {
		UnicastHops int
		GatherHops  int
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if out["fig1"].UnicastHops != 15 || out["fig1"].GatherHops != 5 {
		t.Errorf("fig1 = %+v", out["fig1"])
	}
}

// Out-of-range -rounds, -jobs and -workers and an unknown -model are
// refused by name before anything runs, instead of failing deep in one
// artifact, being ignored by the artifacts that do not read them, or
// falling back to a default.
func TestRunRejectsBadFlagValues(t *testing.T) {
	for _, c := range []struct {
		args []string
		want error
	}{
		{[]string{"-exp", "ina", "-rounds", "-1"}, errRounds},
		{[]string{"-exp", "table2", "-rounds", "0"}, errRounds},
		{[]string{"-exp", "multijob", "-jobs", "-3"}, errJobs},
		{[]string{"-exp", "multijob", "-jobs", "0"}, errJobs},
		{[]string{"-exp", "table2", "-workers", "-1"}, errWorkers},
		{[]string{"-exp", "fig7", "-workers", "-8"}, errWorkers},
		{[]string{"-exp", "all", "-model", "bogus"}, errModel},
		{[]string{"-exp", "table1", "-model", "bogus"}, errModel},
		// Flags that no selected artifact reads.
		{[]string{"-exp", "table1", "-jobs", "9", "-overlap", "-model", "vgg16", "-rounds", "5"}, errUnread},
		{[]string{"-exp", "table1", "-rounds", "5"}, errUnread},
		// Layer artifacts run whole layers: -rounds is a window artifact's.
		{[]string{"-exp", "table2,fig7,fullmodel", "-rounds", "3"}, errUnread},
		{[]string{"-exp", "delta,skew,dataflow", "-rounds", "1"}, errUnread},
		{[]string{"-exp", "fig1,table3", "-model", "vgg16"}, errUnread},
		{[]string{"-exp", "pipeline", "-jobs", "2"}, errUnread},
		{[]string{"-exp", "pipeline,ina", "-overlap"}, errUnread},
		{[]string{"-exp", "multijob", "-model", "vgg16"}, errUnread},
		{[]string{"-exp", "topology", "-cachedir", filepath.Join(t.TempDir(), "c")}, errUnread},
		{[]string{"-exp", "ina,faults", "-cachedir", filepath.Join(t.TempDir(), "c")}, errUnread},
		{[]string{"-exp", "table1,fig1", "-workers", "4"}, errUnread},
		{[]string{"-exp", "multijob", "-workers", "2"}, errUnread},
	} {
		var b strings.Builder
		if err := run(context.Background(), c.args, &b, io.Discard); !errors.Is(err, c.want) || b.Len() != 0 {
			t.Errorf("args %v: err %v with %d bytes printed, want %v and no output", c.args, err, b.Len(), c.want)
		}
	}
}

// TestRunAccountingLine pins the stderr accounting of a Table II pass, whole
// layers on one worker: each mode's first layer records a trajectory and
// the other four replay it without waiting, and each of the eight replays
// leaves its fabric as it was loaded, so its release keeps it. The line
// counts this run only, whatever the process ran before.
func TestRunAccountingLine(t *testing.T) {
	var out, acct strings.Builder
	if err := run(context.Background(), []string{"-exp", "table2", "-workers", "1"}, &out, &acct); err != nil {
		t.Fatal(err)
	}
	line := acct.String()
	if !strings.HasPrefix(line, "fabrics built=") || strings.Count(line, "\n") != 1 {
		t.Fatalf("accounting %q, want one fabrics line", line)
	}
	if !strings.HasSuffix(line, ", recorded=2 replayed=8 waited=0 kept=8\n") {
		t.Errorf("accounting %q, want recorded=2 replayed=8 waited=0 kept=8", line)
	}
	var quiet strings.Builder
	if err := run(context.Background(), []string{"-exp", "table2", "-workers", "1"}, &quiet, io.Discard); err != nil {
		t.Fatal(err)
	}
	if quiet.String() != out.String() {
		t.Error("the report depends on where the accounting goes")
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-format", "xml"}, &b, io.Discard); err == nil {
		t.Error("bad format accepted")
	}
}

func TestRunPipelineArtifacts(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "pipeline", "-rounds", "1"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"== pipeline (window: the first 1 round(s) of each run) ==", "barrier", "overlap", "analytic", "exact"} {
		if !strings.Contains(out, frag) {
			t.Errorf("pipeline output missing %q:\n%s", frag, out)
		}
	}

	b.Reset()
	if err := run(context.Background(), []string{"-exp", "multijob", "-rounds", "1", "-jobs", "2", "-overlap"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, frag := range []string{"== multijob (window: the first 1 round(s) of each run) ==", "inference-1", "background", "max/min slowdown", "oracle exact"} {
		if !strings.Contains(out, frag) {
			t.Errorf("multijob output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunCollectivesArtifact(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "collectives", "-rounds", "1"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"== collectives (window: the first 1 round(s) of each run) ==", "tree", "flat", "fused", "rowgather"} {
		if !strings.Contains(out, frag) {
			t.Errorf("collectives output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunFaultsArtifact(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "faults", "-rounds", "1"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "oracle-exact") || !strings.Contains(out, "retransmits") {
		t.Errorf("faults output incomplete:\n%s", out)
	}
}

// TestRunCachedRerunByteIdentical drives the -cachedir path end to end:
// a cold run fills the directory, the warm rerun must write the same
// bytes to stdout, and -format json must replay from the same entries.
func TestRunCachedRerunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "table2", "-cachedir", dir}
	var cold strings.Builder
	if err := run(context.Background(), args, &cold, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written: %v, %v", entries, err)
	}
	var warm strings.Builder
	if err := run(context.Background(), args, &warm, io.Discard); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Errorf("warm rerun diverged:\n%s\nvs\n%s", warm.String(), cold.String())
	}

	var asJSON strings.Builder
	if err := run(context.Background(), append(args, "-format", "json"), &asJSON, io.Discard); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(asJSON.String()), &doc); err != nil {
		t.Fatalf("cached json output does not parse: %v", err)
	}

	// An uncached run must produce the same report — the cache may never
	// change results, only skip simulation.
	var uncached strings.Builder
	if err := run(context.Background(), []string{"-exp", "table2"}, &uncached, io.Discard); err != nil {
		t.Fatal(err)
	}
	if uncached.String() != cold.String() {
		t.Errorf("cached run diverged from uncached:\n%s\nvs\n%s", cold.String(), uncached.String())
	}
}
