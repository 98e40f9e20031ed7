package experiments

import (
	"context"
	"strings"
	"testing"

	"gathernoc/internal/cnn"
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
	// Background traffic must slow gather collection relative to quiet.
	busyShared := find(0.15, false)
	if busyShared.Collection <= quietShared.Collection {
		t.Errorf("background traffic had no effect: busy %.1f <= quiet %.1f",
			busyShared.Collection, quietShared.Collection)
	}
	if out := RenderMixedTraffic(rows); !strings.Contains(out, "dedicated") {
		t.Error("render missing dedicated rows")
	}

	// Under heavy background traffic the dedicated VC must help (the
	// paper's Sec. VI mitigation), over twelve background streams, fixed
	// before looking, at four rounds each: mean collection at least 15 %
	// lower, and no slower than sharing on 11 of the 12 streams.
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	const streams = 12
	runs, err := Sweep(context.Background(), 0, make([]struct{}, 2*streams),
		func(_ context.Context, i int, _ struct{}) (MixedTrafficRow, error) {
			return runMixed(layer, 0.15, i%2 == 1, int64(i/2+1), 4)
		})
	if err != nil {
		t.Fatal(err)
	}
	var shared, dedicated float64
	wins := 0
	for i := 0; i < len(runs); i += 2 {
		s, d := runs[i], runs[i+1]
		shared += s.Collection / streams
		dedicated += d.Collection / streams
		if d.Collection <= s.Collection {
			wins++
		}
	}
	t.Logf("rate 0.15, seeds 1-%d: collection shared %.1f, dedicated %.1f; dedicated no slower on %d", streams, shared, dedicated, wins)
	if dedicated > 0.85*shared {
		t.Errorf("busy network: mean dedicated VC collection %.1f, shared %.1f; want 15 %% lower", dedicated, shared)
	}
	if wins < streams-1 {
		t.Errorf("busy network: dedicated VC no slower on %d of %d streams, want %d", wins, streams, streams-1)
	}
}
