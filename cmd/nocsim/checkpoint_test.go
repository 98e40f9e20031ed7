package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gathernoc/internal/flit"
)

// resultLines strips the process-local lines (scheduler evaluations,
// checkpoint/resume provenance) so an interrupted run can be compared
// against an uninterrupted one on results alone.
func resultLines(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "evaluations") ||
			strings.HasPrefix(line, "checkpoint") ||
			strings.HasPrefix(line, "resumed") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestRunCheckpointResume is the CLI checkpoint contract: a run
// interrupted by a mid-flight checkpoint and resumed in a fresh process
// must print the same result lines as the uninterrupted run.
func TestRunCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	args := []string{
		"-rows", "4", "-cols", "4", "-pattern", "uniform",
		"-rate", "0.05", "-warmup", "100", "-measure", "500", "-seed", "7",
	}

	var full strings.Builder
	if err := run(args, &full); err != nil {
		t.Fatal(err)
	}

	var interrupted strings.Builder
	if err := run(append(args, "-checkpoint", ck, "-checkpointat", "300"), &interrupted); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(interrupted.String(), "checkpoint     "+ck) {
		t.Errorf("checkpoint line missing:\n%s", interrupted.String())
	}
	// The capturing run keeps going after the snapshot, so its results
	// must already match the plain run.
	if resultLines(interrupted.String()) != resultLines(full.String()) {
		t.Errorf("capturing run diverged:\n%s\nvs\n%s", interrupted.String(), full.String())
	}

	var resumed strings.Builder
	if err := run([]string{"-resume", ck}, &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resumed        "+ck+" at cycle 300") {
		t.Errorf("resume line missing:\n%s", resumed.String())
	}
	if resultLines(resumed.String()) != resultLines(full.String()) {
		t.Errorf("resumed run diverged:\n%s\nvs\n%s", resumed.String(), full.String())
	}
}

// TestRunResumeShardInvariant: resuming a sequential checkpoint on the
// sharded engine must not change the results — shard count is a
// result-invariant knob, so it comes from the resume flags, not the file.
func TestRunResumeShardInvariant(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	args := []string{
		"-rows", "4", "-cols", "4", "-pattern", "transpose",
		"-rate", "0.05", "-warmup", "100", "-measure", "400", "-seed", "3",
		"-checkpoint", ck, "-checkpointat", "200",
	}
	var captured strings.Builder
	if err := run(args, &captured); err != nil {
		t.Fatal(err)
	}
	var seq, sharded strings.Builder
	if err := run([]string{"-resume", ck}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-resume", ck, "-shards", "2"}, &sharded); err != nil {
		t.Fatal(err)
	}
	if resultLines(seq.String()) != resultLines(sharded.String()) {
		t.Errorf("shard count changed resumed results:\n%s\nvs\n%s", seq.String(), sharded.String())
	}
}

// TestRunResumeRefusesFabricFlags: a resumed run takes its fabric, faults
// included, from the file, so a fabric, fault or telemetry flag beside
// -resume is refused by name instead of dropped; -shards, the watchdog and
// a further checkpoint are this run's own.
func TestRunResumeRefusesFabricFlags(t *testing.T) {
	dir := t.TempDir()
	ck, ck2 := filepath.Join(dir, "ck.bin"), filepath.Join(dir, "ck2.bin")
	args := []string{"-rows", "4", "-cols", "4", "-rate", "0.05", "-warmup", "100", "-measure", "400",
		"-checkpoint", ck, "-checkpointat", "200"}
	if err := run(args, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	// Several refused flags name the first in the flag set's order.
	for _, extra := range [][]string{{"-rows", "16"}, {"-vcs", "2"}, {"-faultrate", "0.01"},
		{"-faultrate", "0.01", "-rows", "16", "-vcs", "2"}, {"-topology", "torus"},
		{"-deadlink", "0>1"}, {"-metrics", filepath.Join(dir, "m.csv")}} {
		err := run(append([]string{"-resume", ck}, extra...), new(strings.Builder))
		if !errors.Is(err, errUnread) || !strings.Contains(err.Error(), extra[0]+":") || !strings.Contains(err.Error(), "resumed run") {
			t.Errorf("-resume with %v: err %v, want a refusal naming %s and the resumed run", extra, err, extra[0])
		}
	}
	var b strings.Builder
	if err := run([]string{"-resume", ck, "-shards", "2", "-watchdog", "5000", "-checkpoint", ck2, "-checkpointat", "300"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "checkpoint     "+ck2+" at cycle 300") {
		t.Errorf("a resumed run wrote no further checkpoint:\n%s", b.String())
	}
}

func TestRunCheckpointRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	cases := [][]string{
		{"-checkpoint", ck},                                                                  // missing -checkpointat
		{"-checkpoint", ck, "-checkpointat", "0"},                                            // non-positive cycle
		{"-checkpoint", ck, "-checkpointat", "100", "-ina"},                                  // non-synthetic path
		{"-resume", ck, "-replay", "trace.json"},                                             // non-synthetic path
		{"-checkpoint", ck, "-checkpointat", "100", "-metrics", filepath.Join(dir, "m.csv")}, // telemetry
		{"-resume", filepath.Join(dir, "missing.json")},                                      // unreadable file
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("run(%v) accepted bad input", args)
		}
	}

	// A checkpoint file from a different snapshot version must be refused,
	// the previous layout's (v1 snapshots carried a per-NIC tag) included.
	for _, version := range []string{"bogus/v0", "gathernoc/noc.Snapshot/v1"} {
		if err := os.WriteFile(ck, []byte(`{"Network":{"Version":"`+version+`"}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := run([]string{"-resume", ck}, &b); err == nil || !strings.Contains(err.Error(), "incompatible version") {
			t.Errorf("%s checkpoint: %v, want the incompatible-version error", version, err)
		}
	}

	// A generator draw count the checkpoint's cycle could not have made is
	// refused before it is replayed: resuming one used to spin for ever.
	args := []string{"-rows", "4", "-cols", "4", "-rate", "0.05", "-warmup", "100", "-measure", "500",
		"-checkpoint", ck, "-checkpointat", "300"}
	if err := run(args, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, withDrawCount(t, data, 1<<62), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-resume", ck}, new(strings.Builder)); err == nil || !strings.Contains(err.Error(), "draw count") {
		t.Errorf("damaged draw count: %v, want the draw-count error", err)
	}
}

// withDrawCount returns checkpoint data with the generator's draw count
// (traffic.Generator.AppendState: the base, the injecting flag, four packet
// counts, then the count) set to draws.
func withDrawCount(t *testing.T, data []byte, draws uint64) []byte {
	t.Helper()
	version, rest, _ := bytes.Cut(data, []byte{'\n'})
	header, rest, _ := bytes.Cut(rest, []byte{'\n'})
	n, k := binary.Uvarint(rest)
	gen, network := rest[k:k+int(n)], rest[k+int(n):]
	var d flit.Decoder
	d.Reset(gen, 0, 0)
	var e flit.Encoder
	e.ResetAbsolute(nil)
	e.Int(d.Int())
	e.Bool(d.Bool())
	for i := 0; i < 4; i++ {
		e.Uint(d.Uint())
	}
	d.Uint()
	e.Uint(draws)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	gen = append(e.Bytes(), gen[len(gen)-d.Remaining():]...)
	out := append(append([]byte(nil), version...), '\n')
	out = append(append(out, header...), '\n')
	out = binary.AppendUvarint(out, uint64(len(gen)))
	return append(append(out, gen...), network...)
}

// A v3 checkpoint, whose generator state has no next-arrival table, is
// refused with the incompatible-version error before anything is read.
func TestRunResumeRefusesV3Checkpoint(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.bin")
	args := []string{"-rows", "4", "-cols", "4", "-rate", "0.05", "-warmup", "100", "-measure", "500",
		"-checkpoint", ck, "-checkpointat", "300"}
	if err := run(args, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := bytes.Cut(data, []byte{'\n'})
	v3 := append([]byte("gathernoc/nocsim.Checkpoint/v3\n"), rest...)
	if err := os.WriteFile(ck, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-resume", ck}, new(strings.Builder)); err == nil || !strings.Contains(err.Error(), "incompatible version") {
		t.Errorf("v3 checkpoint: %v, want the incompatible-version error", err)
	}
}
