package systolic

import (
	"reflect"
	"testing"

	"gathernoc/internal/analytic"
	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/workload"
)

func smallLayer() cnn.LayerConfig {
	return cnn.LayerConfig{
		Model: "test", Name: "tiny", InChannels: 4, OutKernels: 8, Kernel: 3,
		InputSize: 10, OutputSize: 10, Stride: 1, Pad: 1,
	}
}

func runLayer(t *testing.T, rows, cols int, layer cnn.LayerConfig, mode Mode, rounds int) *Result {
	t.Helper()
	nw, err := noc.New(noc.DefaultConfig(rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(nw, Config{Layer: layer, Mode: mode, TMAC: 5, MaxRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(nw, ctl, 10_000_000); err != nil {
		t.Fatal(err)
	}
	res := ctl.Result()
	return res
}

func TestConfigValidate(t *testing.T) {
	good := Config{Layer: smallLayer(), Mode: GatherMode, TMAC: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Layer: smallLayer(), Mode: 0, TMAC: 5},
		{Layer: smallLayer(), Mode: GatherMode, TMAC: -1},
		{Layer: smallLayer(), Mode: GatherMode, TMAC: 5, MaxRounds: -1},
		{Layer: cnn.LayerConfig{}, Mode: GatherMode, TMAC: 5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRoundCompletesRU(t *testing.T) {
	res := runLayer(t, 4, 4, smallLayer(), RepetitiveUnicast, 2)
	if res.RoundCycles.N() != 2 {
		t.Fatalf("rounds simulated = %d", res.RoundCycles.N())
	}
	if res.PayloadErrors != 0 {
		t.Errorf("payload errors = %d", res.PayloadErrors)
	}
	// Round latency must exceed the compute floor C·R·R + TMAC.
	floor := float64(smallLayer().MACsPerPE() + 5)
	if res.RoundCycles.Min() <= floor {
		t.Errorf("round latency %v <= compute floor %v", res.RoundCycles.Min(), floor)
	}
	if res.TotalRounds != smallLayer().Rounds(4, 4) {
		t.Errorf("TotalRounds = %d", res.TotalRounds)
	}
}

func TestRoundCompletesGather(t *testing.T) {
	res := runLayer(t, 4, 4, smallLayer(), GatherMode, 2)
	if res.PayloadErrors != 0 {
		t.Errorf("payload errors = %d", res.PayloadErrors)
	}
	// In a clean run every non-initiator PE's payload should piggyback;
	// self-initiations indicate δ misconfiguration.
	if res.SelfInitiatedGathers != 0 {
		t.Errorf("self-initiated gathers = %d, want 0", res.SelfInitiatedGathers)
	}
	// 3 piggybacking columns x 4 rows x 2 rounds.
	if res.PiggybackAcks != 24 {
		t.Errorf("piggyback acks = %d, want 24", res.PiggybackAcks)
	}
}

func TestGatherBeatsRU(t *testing.T) {
	ru := runLayer(t, 4, 4, smallLayer(), RepetitiveUnicast, 2)
	g := runLayer(t, 4, 4, smallLayer(), GatherMode, 2)
	if g.RoundCycles.Mean() >= ru.RoundCycles.Mean() {
		t.Errorf("gather round %.1f >= RU round %.1f",
			g.RoundCycles.Mean(), ru.RoundCycles.Mean())
	}
	if g.MeasuredCycles >= ru.MeasuredCycles {
		t.Errorf("gather total %d >= RU total %d", g.MeasuredCycles, ru.MeasuredCycles)
	}
}

func TestSimulatedImprovementAtLeastEstimated(t *testing.T) {
	// The paper's Table II observation: the simulated improvement exceeds
	// the ideal-case estimate because congestion penalizes RU more.
	layer := cnn.AlexNetConvLayers()[0]
	ru := runLayer(t, 8, 8, layer, RepetitiveUnicast, 2)
	g := runLayer(t, 8, 8, layer, GatherMode, 2)
	simImp := float64(ru.MeasuredCycles-g.MeasuredCycles) / float64(g.MeasuredCycles) * 100

	est := analytic.Params{
		N: 8, M: 8, Kappa: 4, UnicastFlits: 2, GatherFlits: 4, Eta: 8,
		TMAC: 5, CRR: layer.MACsPerPE(),
	}
	if simImp <= 0 {
		t.Fatalf("simulated improvement %.2f%% not positive", simImp)
	}
	if simImp < est.Improvement() {
		t.Errorf("simulated %.2f%% < estimated %.2f%%", simImp, est.Improvement())
	}
}

func TestRoundsAreIdentical(t *testing.T) {
	// Rounds are serialized and the network drains between them, so every
	// simulated round should take exactly as long as the first.
	res := runLayer(t, 4, 4, smallLayer(), GatherMode, 4)
	if res.RoundCycles.Min() != res.RoundCycles.Max() {
		t.Errorf("round latencies vary: min %v max %v",
			res.RoundCycles.Min(), res.RoundCycles.Max())
	}
}

// TestExactModeSmallLayer: MaxRounds 0, the default, covers every round of
// the layer, and so does a MaxRounds of at least its round count: all
// three yield the same Record (NewController clamps).
func TestExactModeSmallLayer(t *testing.T) {
	layer := cnn.LayerConfig{
		Model: "test", Name: "micro", InChannels: 1, OutKernels: 4, Kernel: 2,
		InputSize: 5, OutputSize: 4, Stride: 1, Pad: 0,
	}
	total := Config{Layer: layer}.totalRounds(4, 4)
	var exact Record
	for _, tc := range []struct {
		name      string
		maxRounds int
	}{
		{"0", 0},
		{"equal to the round count", int(total)},
		{"above the round count", int(total) + 1000},
	} {
		nw, err := noc.New(noc.DefaultConfig(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewController(nw, Config{Layer: layer, Mode: GatherMode, TMAC: 5, MaxRounds: tc.maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Run(nw, ctl, 1_000_000); err != nil {
			t.Fatal(err)
		}
		res := ctl.Result()
		if int64(res.RoundCycles.N()) != res.TotalRounds || res.TotalRounds != total {
			t.Errorf("%s: covered %d of %d rounds, want %d of %d", tc.name, res.RoundCycles.N(), res.TotalRounds, total, total)
		}
		if res.MeasuredCycles != int64(res.RoundCycles.Sum()) {
			t.Errorf("%s: measured %d cycles, the rounds sum to %v", tc.name, res.MeasuredCycles, res.RoundCycles.Sum())
		}
		if exact.TotalRounds == 0 {
			exact = res.Record
		} else if !reflect.DeepEqual(res.Record, exact) {
			t.Errorf("%s: record %+v, want %+v", tc.name, res.Record, exact)
		}
	}
}

func TestStreamAndMACAccounting(t *testing.T) {
	layer := smallLayer()
	res := runLayer(t, 4, 4, layer, GatherMode, 2)
	perRound := uint64(layer.MACsPerPE()) * 16
	if res.MACs != perRound*2 {
		t.Errorf("MACs = %d, want %d", res.MACs, perRound*2)
	}
	if res.StreamHops != 2*perRound*2 {
		t.Errorf("StreamHops = %d, want %d", res.StreamHops, 4*perRound)
	}
}

func TestControllerRequiresSinks(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	cfg.EastSinks = false
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(nw, Config{Layer: smallLayer(), Mode: GatherMode, TMAC: 5}); err == nil {
		t.Error("controller accepted sink-less network")
	}
}

func TestModeString(t *testing.T) {
	if RepetitiveUnicast.String() != "RU" || GatherMode.String() != "Gather" {
		t.Error("mode names wrong")
	}
}
