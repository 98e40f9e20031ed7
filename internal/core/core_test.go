package core

import (
	"math"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/systolic"
)

func testLayer() cnn.LayerConfig {
	return cnn.LayerConfig{
		Model: "test", Name: "tiny", InChannels: 4, OutKernels: 8, Kernel: 3,
		InputSize: 10, OutputSize: 10, Stride: 1, Pad: 1,
	}
}

func TestRunLayerBothModes(t *testing.T) {
	for _, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
		rep, err := RunLayer(4, 4, testLayer(), mode, Options{Rounds: 1})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rep.Result.TotalCycles <= 0 {
			t.Errorf("%s: no cycles", mode)
		}
		if rep.Energy.NoCPJ <= 0 {
			t.Errorf("%s: no energy", mode)
		}
		if rep.Events.StreamHops == 0 || rep.Events.MACs == 0 {
			t.Errorf("%s: streaming/MAC events missing", mode)
		}
	}
}

func TestCompareLayerImprovements(t *testing.T) {
	cmp, err := CompareLayer(4, 4, testLayer(), Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.LatencyImprovementPct <= 0 {
		t.Errorf("latency improvement = %.2f, want > 0", cmp.LatencyImprovementPct)
	}
	if cmp.PowerImprovementPct <= 0 {
		t.Errorf("power improvement = %.2f, want > 0", cmp.PowerImprovementPct)
	}
	if cmp.EstimatedImprovementPct <= 0 {
		t.Errorf("estimated improvement = %.2f, want > 0", cmp.EstimatedImprovementPct)
	}
	// Gather must use fewer link traversals (the Fig. 1 hop argument).
	if cmp.Gather.Events.LinkFlits >= cmp.RU.Events.LinkFlits {
		t.Errorf("gather link flits %d >= RU %d",
			cmp.Gather.Events.LinkFlits, cmp.RU.Events.LinkFlits)
	}
}

func TestEstimateParamsMatchesTableII(t *testing.T) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv2")
	p := EstimateParams(noc.DefaultConfig(8, 8), layer, 5)
	if p.Kappa != 4 || p.GatherFlits != 4 || p.Eta != 8 || p.UnicastFlits != 2 {
		t.Fatalf("params = %+v", p)
	}
	if got := p.Improvement(); math.Abs(got-0.73) > 0.005 {
		t.Errorf("Conv2 estimate = %.3f, want 0.73", got)
	}
}

func TestEstimateParams16x16GatherFlits(t *testing.T) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	p := EstimateParams(noc.DefaultConfig(16, 16), layer, 5)
	if p.GatherFlits != 7 {
		t.Errorf("16-wide gather packet = %d flits, want 7", p.GatherFlits)
	}
}

func TestRunLayerRejectsBadNetwork(t *testing.T) {
	_, err := RunLayer(4, 4, testLayer(), systolic.GatherMode, Options{
		Rounds:        1,
		MutateNetwork: func(c *noc.Config) { c.Router.VCs = 0 },
	})
	if err == nil {
		t.Error("invalid network config accepted")
	}
}

func TestRunLayerRejectsBadLayer(t *testing.T) {
	if _, err := RunLayer(4, 4, cnn.LayerConfig{}, systolic.GatherMode, Options{Rounds: 1}); err == nil {
		t.Error("invalid layer accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.rounds() != 2 {
		t.Errorf("default rounds = %d", o.rounds())
	}
}

func TestMutateSystolicApplied(t *testing.T) {
	rep, err := RunLayer(4, 4, testLayer(), systolic.GatherMode, Options{
		Rounds:         1,
		MutateSystolic: func(s *systolic.Config) { s.SkewPerHop = 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunLayer(4, 4, testLayer(), systolic.GatherMode, Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Skewed completion stretches the round.
	if rep.Result.RoundCycles.Mean() <= base.Result.RoundCycles.Mean() {
		t.Errorf("skewed round %.1f <= base %.1f",
			rep.Result.RoundCycles.Mean(), base.Result.RoundCycles.Mean())
	}
}
