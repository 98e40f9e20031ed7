package experiments

import (
	"strings"
	"testing"
)

func TestDataflowsBothMappingsWork(t *testing.T) {
	rows, err := Dataflows(Options{Rounds: 1, Meshes: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (OS, WS)", len(rows))
	}
	for _, r := range rows {
		if r.LatencyImprovement <= 0 {
			t.Errorf("%s: latency improvement %.2f not positive", r.Dataflow, r.LatencyImprovement)
		}
		if r.RoundCycles <= 0 {
			t.Errorf("%s: no round cycles", r.Dataflow)
		}
	}
	out := RenderDataflows(rows)
	if !strings.Contains(out, "OS") || !strings.Contains(out, "WS") {
		t.Errorf("render missing dataflows:\n%s", out)
	}
}

func TestMixedTrafficDedicatedVCHelps(t *testing.T) {
	rows, err := MixedTraffic(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	find := func(rate float64, dedicated bool) *MixedTrafficRow {
		for i := range rows {
			if rows[i].Rate == rate && rows[i].DedicatedVC == dedicated {
				return &rows[i]
			}
		}
		t.Fatalf("row rate=%v dedicated=%v missing", rate, dedicated)
		return nil
	}
	// Without background traffic the dedicated VC changes nothing.
	quietShared, quietDed := find(0, false), find(0, true)
	if quietShared.GatherRound != quietDed.GatherRound {
		t.Errorf("quiet network: shared %.1f != dedicated %.1f",
			quietShared.GatherRound, quietDed.GatherRound)
	}
	// Under heavy background traffic the dedicated VC must not be slower
	// than sharing (the paper's Sec. VI mitigation).
	busyShared, busyDed := find(0.15, false), find(0.15, true)
	if busyDed.Collection > busyShared.Collection {
		t.Errorf("busy network: dedicated VC collection %.1f > shared %.1f",
			busyDed.Collection, busyShared.Collection)
	}
	// Background traffic must slow gather collection relative to quiet.
	if busyShared.Collection <= quietShared.Collection {
		t.Errorf("background traffic had no effect: busy %.1f <= quiet %.1f",
			busyShared.Collection, quietShared.Collection)
	}
	if out := RenderMixedTraffic(rows); !strings.Contains(out, "dedicated") {
		t.Error("render missing dedicated rows")
	}
}
