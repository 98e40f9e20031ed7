package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultExample(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{
		"6x6 mesh", "GLOBAL BUFFER", "hops: 15", "hops: 5", "(G)", "(P)",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunCustomSize(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-size", "8", "-row", "0"}, &b); err != nil {
		t.Fatal(err)
	}
	// 8-wide row: unicast 7+6+...+0 = 28 hops, gather 7.
	out := b.String()
	if !strings.Contains(out, "hops: 28") || !strings.Contains(out, "hops: 7") {
		t.Errorf("hop counts wrong:\n%s", out)
	}
}

func TestRunMerges(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-size", "4", "-row", "1", "-merges"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{
		"per-router payload pickups",
		// 4-wide row, columns 1..3 each piggyback/merge exactly once.
		"gather uploads: (0)---(1)---(1)---(1)",
		"ina merges:    (0)---(1)---(1)---(1)",
		"[2 sink flits]",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// writeMetricsFixture writes a small telemetry metrics CSV: a 2x2 router
// grid over two epochs with a load gradient, plus a NIC row so the kind
// filter has something to exclude.
func writeMetricsFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.csv")
	csv := `epoch,cycle,kind,id,name,row,col,field,value,per_cycle
0,63,router,0,r0,0,0,buffer_writes,0,0.0000
0,63,router,1,r1,0,1,buffer_writes,4,0.0625
0,63,router,2,r2,1,0,buffer_writes,8,0.1250
0,63,router,3,r3,1,1,buffer_writes,16,0.2500
1,127,router,0,r0,0,0,buffer_writes,0,0.0000
1,127,router,1,r1,0,1,buffer_writes,4,0.0625
1,127,router,2,r2,1,0,buffer_writes,8,0.1250
1,127,router,3,r3,1,1,buffer_writes,16,0.2500
0,63,nic,0,n0,0,0,packets_injected,2,0.0312
`
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMetricsHeatmap(t *testing.T) {
	path := writeMetricsFixture(t)
	var b strings.Builder
	if err := run([]string{"-metrics", path}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{
		"router buffer_writes over 2 epochs",
		"peak 32",
		".:", // row 0: idle r0, low r1
		"=@", // row 1: mid r2, peak r3
		"hottest:",
		"r3       (1,1)  32",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestRunMetricsSilentEpoch: the metrics CSV leaves zero rows out between
// its first and last epochs, which are complete, so an epoch in which
// nothing moved has no row at all and still counts — three epochs here,
// the middle one silent, with the totals of the two that carry load.
func TestRunMetricsSilentEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.csv")
	csv := `epoch,cycle,kind,id,name,row,col,field,value,per_cycle
0,63,link,5,l5,-1,-1,flits,3,0.0469
0,63,router,0,r0,0,0,buffer_writes,0,0.0000
0,63,router,1,r1,0,1,buffer_writes,4,0.0625
2,191,link,5,l5,-1,-1,flits,0,0.0000
2,191,router,0,r0,0,0,buffer_writes,2,0.0312
2,191,router,1,r1,0,1,buffer_writes,4,0.0625
`
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-metrics", path}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"router buffer_writes over 3 epochs", "peak 8", "r1       (0,1)  8", "r0       (0,0)  2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}

	// Links have no grid position; the error says so rather than listing
	// the very field that was asked for as one the kind has.
	err := run([]string{"-metrics", path, "-kind", "link", "-field", "flits"}, &b)
	if err == nil || !strings.Contains(err.Error(), "no grid position") {
		t.Errorf("link heatmap: err %v, want one naming the missing grid position", err)
	}
}

func TestRunMetricsUnknownField(t *testing.T) {
	path := writeMetricsFixture(t)
	var b strings.Builder
	err := run([]string{"-metrics", path, "-field", "bogus"}, &b)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	// The error names the fields the CSV actually has for the kind.
	if !strings.Contains(err.Error(), "buffer_writes") {
		t.Errorf("error does not list known fields: %v", err)
	}
	if err := run([]string{"-metrics", "/nonexistent/metrics.csv"}, &b); err == nil {
		t.Error("missing metrics file accepted")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-size", "1"},
		{"-size", "100"},
		{"-row", "-1"},
		{"-row", "6"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
