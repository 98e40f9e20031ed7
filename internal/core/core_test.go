package core

import (
	"fmt"
	"math"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
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

// collectionOffset is the cycles a simulated collection takes beyond its
// closed form, Eq. 2 for repetitive unicast and Eq. 3 for gather, when the
// global buffer's per-packet cost equals κ. It is the same on both sides,
// so Eq. 4's difference cancels it. The value is measured by
// TestSinkCostAgainstEqs2to4, not derived from the pipeline stages.
const collectionOffset = 3

// TestSinkCostAgainstEqs2to4 ties the simulator to Eqs. 2–4 through the
// global buffer's per-packet cost s (noc.Config.SinkPacketOverhead) on the
// 8x8 and 16x16 meshes, over the nine layers of Table III at three rounds:
//   - at every s from 2 to 5 each round's RU collection is
//     Eq. 2 + c + (s − κ)(M − 1): each RU packet after the row's first
//     waits s − κ cycles more (fewer, below κ) at the buffer; gather
//     collection is Eq. 3 + c, one packet per row whatever s is;
//   - at s = κ the simulated improvement is Eq. 4's within 0.04 points;
//   - at the default 5 RU collection is 57 / 113 cycles, so the simulated
//     row exceeds Eq. 4's by that stall, not by congestion;
//   - gather wins at s = 3 and loses at s = 2, Conv1 the most.
func TestSinkCostAgainstEqs2to4(t *testing.T) {
	layers := append(cnn.AlexNetConvLayers(), cnn.VGG16SelectedConvLayers()...)
	for _, c := range []struct {
		sink  int64
		wins  bool
		conv1 map[int]float64 // AlexNet Conv1's simulated improvement (%) per mesh
		ru    map[int]float64 // RU collection cycles per mesh
	}{
		{sink: 2, wins: false, conv1: map[int]float64{8: -0.49, 16: -1.13}, ru: map[int]float64{8: 36, 16: 68}},
		{sink: 3, wins: true, conv1: map[int]float64{8: 1.23, 16: 2.27}, ru: map[int]float64{8: 43, 16: 83}},
		{sink: 4, wins: true, conv1: map[int]float64{8: 2.96, 16: 5.67}, ru: map[int]float64{8: 50, 16: 98}},
		{sink: 5, wins: true, conv1: map[int]float64{8: 4.68, 16: 9.07}, ru: map[int]float64{8: 57, 16: 113}},
	} {
		opts := Options{Rounds: 3, MutateNetwork: func(cfg *noc.Config) { cfg.SinkPacketOverhead = c.sink }}
		for _, mesh := range []int{8, 16} {
			cfg := opts.networkConfig(mesh, mesh)
			kappa := cfg.HeaderHopLatency()
			if kappa != 4 {
				t.Fatalf("κ = %d, want Table I's 4", kappa)
			}
			for _, layer := range layers {
				cmp, err := CompareLayer(mesh, mesh, layer, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("s=%d %dx%d %s %s", c.sink, mesh, mesh, layer.Model, layer.Name)
				p := EstimateParams(cfg, layer, cnn.TMAC)
				wantRU := p.RUCollection() + collectionOffset + (int(c.sink)-kappa)*(mesh-1)
				wantG := p.GatherCollection() + collectionOffset
				for _, s := range []struct {
					mode string
					got  *stats.Sample
					want int
				}{{"RU", &cmp.RU.Result.CollectionCycles, wantRU}, {"gather", &cmp.Gather.Result.CollectionCycles, wantG}} {
					if s.got.N() != 3 || s.got.Min() != float64(s.want) || s.got.Max() != float64(s.want) {
						t.Errorf("%s: %s collection %v over %d rounds, want %d each", name, s.mode, s.got, s.got.N(), s.want)
					}
				}
				if float64(wantRU) != c.ru[mesh] {
					t.Errorf("%s: RU collection %d, want %v", name, wantRU, c.ru[mesh])
				}
				sim := cmp.LatencyImprovementPct
				if (sim > 0) != c.wins {
					t.Errorf("%s: improvement %.3f%%, want gather to win: %v", name, sim, c.wins)
				}
				if int(c.sink) == kappa && math.Abs(sim-cmp.EstimatedImprovementPct) > 0.04 {
					t.Errorf("%s: simulated %.3f%%, Eq. 4 %.3f%%: more than 0.04 points apart", name, sim, cmp.EstimatedImprovementPct)
				}
				if layer.Model == "AlexNet" && layer.Name == "Conv1" && math.Abs(sim-c.conv1[mesh]) > 0.005 {
					t.Errorf("%s: improvement %.3f%%, want %.2f%%", name, sim, c.conv1[mesh])
				}
			}
		}
	}
}
