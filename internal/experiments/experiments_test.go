package experiments

import (
	"errors"
	"strings"
	"testing"
)

// quickOpts keeps the suite fast in unit tests: small meshes, and one
// round for the window artifacts (the layer artifacts run whole layers).
func quickOpts() Options {
	return Options{Rounds: 1, Meshes: []int{4, 8}}
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	rows, err := Table2(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Simulated < r.Estimated {
			t.Errorf("%s: simulated %.2f < estimated %.2f (paper: congestion makes simulated larger)",
				r.Layer, r.Simulated, r.Estimated)
		}
		if r.Estimated <= 0 || r.Simulated <= 0 {
			t.Errorf("%s: non-positive improvement", r.Layer)
		}
	}
	// Conv1 (smallest C·R·R) shows the largest improvement.
	for _, r := range rows[1:] {
		if r.Simulated >= rows[0].Simulated {
			t.Errorf("Conv1 should dominate: %s=%.2f vs Conv1=%.2f",
				r.Layer, r.Simulated, rows[0].Simulated)
		}
	}
	out := RenderTable2(rows)
	for _, frag := range []string{"Estimated", "Simulated", "Conv5"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}

func TestFig7BiggerMeshImprovesMore(t *testing.T) {
	rows, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Layer+string(rune(r.Mesh))] = r.Improvement
	}
	for _, layer := range []string{"Conv1", "Conv2", "Conv3", "Conv4", "Conv5"} {
		small := byKey[layer+string(rune(4))]
		big := byKey[layer+string(rune(8))]
		if big <= small {
			t.Errorf("%s: 8x8 improvement %.2f <= 4x4 %.2f", layer, big, small)
		}
	}
}

func TestFig8VGGPositive(t *testing.T) {
	rows, err := Fig8(Options{Rounds: 1, Meshes: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 selected VGG layers", len(rows))
	}
	for _, r := range rows {
		if r.Improvement <= 0 {
			t.Errorf("%s: improvement %.2f not positive", r.Layer, r.Improvement)
		}
		if r.Model != "VGG-16" {
			t.Errorf("model = %q", r.Model)
		}
	}
	// VGG Conv1 (smallest C·R·R) dominates, as in the paper.
	for _, r := range rows[1:] {
		if r.Improvement >= rows[0].Improvement {
			t.Errorf("VGG Conv1 should dominate: %s=%.2f vs %.2f",
				r.Layer, r.Improvement, rows[0].Improvement)
		}
	}
}

func TestFig9PowerShape(t *testing.T) {
	rows, err := Fig9(Options{Rounds: 1, Meshes: []int{8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Improvement <= 0 {
			t.Errorf("%s %dx%d: power improvement %.2f not positive",
				r.Layer, r.Mesh, r.Mesh, r.Improvement)
		}
		// The paper: all AlexNet layers below 1% on the 8x8 mesh.
		if r.Mesh == 8 && r.Improvement >= 1.0 {
			t.Errorf("%s on 8x8: power improvement %.2f >= 1%%", r.Layer, r.Improvement)
		}
	}
	// And the 16x16 mesh improves more than the 8x8 (per layer).
	by := map[string]map[int]float64{}
	for _, r := range rows {
		if by[r.Layer] == nil {
			by[r.Layer] = map[int]float64{}
		}
		by[r.Layer][r.Mesh] = r.Improvement
	}
	for layer, m := range by {
		if m[16] <= m[8] {
			t.Errorf("%s: 16x16 power %.2f <= 8x8 %.2f", layer, m[16], m[8])
		}
	}
}

func TestFig10VGGPowerPositive(t *testing.T) {
	rows, err := Fig10(Options{Rounds: 1, Meshes: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Improvement <= 0 {
			t.Errorf("%s: %.3f not positive", r.Layer, r.Improvement)
		}
	}
}

func TestFig1HopCounts(t *testing.T) {
	r := Fig1()
	if r.UnicastHops != 15 || r.GatherHops != 5 {
		t.Errorf("hops = %d/%d, want 15/5 (the paper's Fig. 1 numbers)",
			r.UnicastHops, r.GatherHops)
	}
	if !strings.Contains(RenderFig1(r), "15 hops") {
		t.Error("render missing hop count")
	}
}

func TestRenderTables(t *testing.T) {
	t1 := RenderTable1(8, 8)
	for _, frag := range []string{"8x8 Mesh", "Virtual Channels    4", "98 bits", "Gather: 4 flits"} {
		if !strings.Contains(t1, frag) {
			t.Errorf("Table I render missing %q:\n%s", frag, t1)
		}
	}
	t3 := RenderTable3()
	for _, frag := range []string{"AlexNet Conv1", "VGG-16 Conv4", "3x64@11x11"} {
		if !strings.Contains(t3, frag) {
			t.Errorf("Table III render missing %q", frag)
		}
	}
}

func TestRenderImprovementsLayout(t *testing.T) {
	rows := []ImprovementRow{
		{Model: "AlexNet", Layer: "Conv1", Mesh: 8, Improvement: 4.5},
		{Model: "AlexNet", Layer: "Conv2", Mesh: 8, Improvement: 1.1},
		{Model: "AlexNet", Layer: "Conv1", Mesh: 16, Improvement: 9.0},
		{Model: "AlexNet", Layer: "Conv2", Mesh: 16, Improvement: 2.2},
	}
	out := RenderImprovements("Fig X", "%", rows)
	if !strings.Contains(out, "8x8") || !strings.Contains(out, "16x16") {
		t.Errorf("render missing mesh rows:\n%s", out)
	}
	if !strings.Contains(out, "Conv1") || !strings.Contains(out, "Conv2") {
		t.Errorf("render missing layer headers:\n%s", out)
	}
}

// TestNegativeRoundsRefused: every window artifact refuses a negative
// Options.Rounds by name before it runs anything; the layer artifacts do
// not read Rounds, so one of them runs its whole layers regardless.
func TestNegativeRoundsRefused(t *testing.T) {
	opts := Options{Rounds: -5, Meshes: []int{4}, Jobs: 1}
	for name, run := range map[string]func(Options) error{
		"ina":         func(o Options) error { _, err := INAComparison(o); return err },
		"collectives": func(o Options) error { _, err := CollectiveComparison(o); return err },
		"faults":      func(o Options) error { _, err := FaultSweep(o); return err },
		"pipeline":    func(o Options) error { _, err := PipelineComparison(o); return err },
		"multijob":    func(o Options) error { _, err := MultiJob(o); return err },
		"mixed":       func(o Options) error { _, err := MixedTraffic(o); return err },
	} {
		if err := run(opts); !errors.Is(err, errNegativeRounds) {
			t.Errorf("%s: err = %v, want %v", name, err, errNegativeRounds)
		}
	}
	if _, err := AblationEta(opts); err != nil {
		t.Errorf("eta, which does not read Rounds: %v", err)
	}
}
