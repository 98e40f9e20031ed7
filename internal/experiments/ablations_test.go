package experiments

import (
	"strings"
	"testing"
)

func TestAblationDeltaFailureMode(t *testing.T) {
	rows, err := AblationDelta(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Flat δ=0 must force widespread self-initiation; a generous flat δ
	// must eliminate it.
	first, last := rows[0], rows[len(rows)-1]
	if first.Value != 0 || first.SelfInitiated == 0 {
		t.Errorf("flat δ=0 self-initiations = %d, want > 0", first.SelfInitiated)
	}
	if last.SelfInitiated != 0 {
		t.Errorf("flat δ=%d self-initiations = %d, want 0", last.Value, last.SelfInitiated)
	}
	// Self-initiation count must not increase with δ.
	for i := 1; i < len(rows); i++ {
		if rows[i].SelfInitiated > rows[i-1].SelfInitiated {
			t.Errorf("self-initiations rose from δ=%d (%d) to δ=%d (%d)",
				rows[i-1].Value, rows[i-1].SelfInitiated, rows[i].Value, rows[i].SelfInitiated)
		}
	}
}

func TestAblationEtaSmallCapacityHurts(t *testing.T) {
	rows, err := AblationEta(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	by := map[int]float64{}
	for _, r := range rows {
		by[r.Value] = r.LatencyImprovement
	}
	// Full-row capacity (8 on the 8x8 mesh) must beat fragmented gathers
	// (η=2).
	if by[8] <= by[2] {
		t.Errorf("η=8 improvement %.2f <= η=2 %.2f", by[8], by[2])
	}
}

func TestAblationSinkCostZeroKillsLatencyGain(t *testing.T) {
	rows, err := AblationSinkCost(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	by := map[int]AblationRow{}
	for _, r := range rows {
		by[r.Value] = r
	}
	// The DESIGN.md §3 finding: without per-packet buffer transactions the
	// latency advantage (nearly) vanishes...
	if by[0].LatencyImprovement > 0.5 {
		t.Errorf("sinkcost=0 latency improvement = %.2f, expected ~0", by[0].LatencyImprovement)
	}
	// ...but the energy advantage (fewer hops, fewer flits) remains.
	if by[0].PowerImprovement <= 0 {
		t.Errorf("sinkcost=0 power improvement = %.2f, want > 0", by[0].PowerImprovement)
	}
	// Latency improvement grows with the per-packet cost.
	if by[10].LatencyImprovement <= by[2].LatencyImprovement {
		t.Errorf("latency improvement not increasing in sink cost: %v vs %v",
			by[10].LatencyImprovement, by[2].LatencyImprovement)
	}
}

func TestAblationSkewAlignmentEffect(t *testing.T) {
	rows, err := AblationSkew(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	by := map[int]float64{}
	for _, r := range rows {
		if r.LatencyImprovement <= 0 {
			t.Errorf("skew=%d: improvement %.2f not positive", r.Value, r.LatencyImprovement)
		}
		by[r.Value] = r.LatencyImprovement
	}
	// A stagger equal to κ (4) aligns a row's RU arrivals at the buffer
	// and maximizes their transaction serialization, so the gather
	// advantage peaks there rather than at zero skew.
	if by[4] <= by[0] {
		t.Errorf("skew=κ improvement %.2f <= skew=0 %.2f (arrival alignment should maximize RU serialization)",
			by[4], by[0])
	}
}

func TestAblationDepthRun(t *testing.T) {
	rows, err := AblationBufferDepth(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("depth rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.LatencyImprovement <= 0 {
			t.Errorf("%s=%d: improvement %.2f not positive", r.Param, r.Value, r.LatencyImprovement)
		}
	}
}

func TestRenderAblation(t *testing.T) {
	out := RenderAblation("sweep", []AblationRow{{Param: "x", Value: 3, LatencyImprovement: 1.5}})
	if !strings.Contains(out, "sweep") || !strings.Contains(out, "3") {
		t.Errorf("render = %q", out)
	}
}
