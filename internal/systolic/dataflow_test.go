package systolic

import (
	"testing"

	"gathernoc/internal/noc"
	"gathernoc/internal/workload"
)

func runDataflow(t *testing.T, df Dataflow, mode Mode) *Result {
	t.Helper()
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(nw, Config{
		Layer: smallLayer(), Mode: mode, Dataflow: df, TMAC: 5, MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(nw, ctl, 10_000_000); err != nil {
		t.Fatal(err)
	}
	res := ctl.Result()
	return res
}

func TestWeightStationaryCompletes(t *testing.T) {
	res := runDataflow(t, WeightStationary, GatherMode)
	if res.PayloadErrors != 0 {
		t.Errorf("payload errors = %d", res.PayloadErrors)
	}
	if res.Dataflow != WeightStationary {
		t.Errorf("dataflow = %s", res.Dataflow)
	}
	// WS emits one result per column per round: 3 piggybacks + 1
	// initiator per round on a 4-wide mesh.
	if res.PiggybackAcks != 6 {
		t.Errorf("piggyback acks = %d, want 6 (3 cols x 2 rounds)", res.PiggybackAcks)
	}
	if res.SelfInitiatedGathers != 0 {
		t.Errorf("self-initiated = %d", res.SelfInitiatedGathers)
	}
}

func TestWeightStationaryRoundCount(t *testing.T) {
	layer := smallLayer() // P = 100, Q = 8
	cfg := Config{Layer: layer, Mode: GatherMode, Dataflow: WeightStationary, TMAC: 5}
	// WS: ceil(P*Q / cols) rounds = ceil(800/4) = 200 on a 4-wide mesh.
	if got := cfg.totalRounds(4, 4); got != 200 {
		t.Errorf("totalRounds = %d, want 200", got)
	}
	if got := cfg.resultsPerRound(4, 4); got != 4 {
		t.Errorf("resultsPerRound = %d, want 4", got)
	}
	os := Config{Layer: layer, Mode: GatherMode, TMAC: 5}
	if got := os.totalRounds(4, 4); got != layer.Rounds(4, 4) {
		t.Errorf("OS totalRounds = %d, want %d", got, layer.Rounds(4, 4))
	}
}

func TestWeightStationaryComputeLatency(t *testing.T) {
	layer := smallLayer() // C·R·R = 36
	cfg := Config{Layer: layer, Mode: GatherMode, Dataflow: WeightStationary, TMAC: 5}
	// ceil(36/4) + 4 + 5 = 18.
	if got := cfg.computeLatency(4); got != 18 {
		t.Errorf("computeLatency = %d, want 18", got)
	}
	os := Config{Layer: layer, Mode: GatherMode, TMAC: 5}
	if got := os.computeLatency(4); got != 41 {
		t.Errorf("OS computeLatency = %d, want 41", got)
	}
}

func TestWeightStationaryGatherBeatsRU(t *testing.T) {
	ru := runDataflow(t, WeightStationary, RepetitiveUnicast)
	g := runDataflow(t, WeightStationary, GatherMode)
	if g.RoundCycles.Mean() >= ru.RoundCycles.Mean() {
		t.Errorf("WS gather round %.1f >= RU %.1f",
			g.RoundCycles.Mean(), ru.RoundCycles.Mean())
	}
}

func TestWeightStationaryStreamAccounting(t *testing.T) {
	res := runDataflow(t, WeightStationary, GatherMode)
	crr := uint64(smallLayer().MACsPerPE())
	wantMACs := crr * 4 * 2        // per column, 2 rounds
	wantStream := (crr*4 + 16) * 2 // operands + psum cascade
	if res.MACs != wantMACs {
		t.Errorf("MACs = %d, want %d", res.MACs, wantMACs)
	}
	if res.StreamHops != wantStream {
		t.Errorf("StreamHops = %d, want %d", res.StreamHops, wantStream)
	}
}

func TestDataflowValidate(t *testing.T) {
	cfg := Config{Layer: smallLayer(), Mode: GatherMode, TMAC: 5, Dataflow: Dataflow(9)}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid dataflow accepted")
	}
}

func TestDataflowString(t *testing.T) {
	if OutputStationary.String() != "OS" || WeightStationary.String() != "WS" {
		t.Error("dataflow names wrong")
	}
}
