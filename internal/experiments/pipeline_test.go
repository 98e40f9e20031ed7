package experiments

import (
	"math"
	"testing"
)

// pipelineReconcileTolerance is the stated tolerance between the
// cycle-accurate barrier makespan and the analytic composition of
// independent per-layer runs: the residue is one admission cycle per
// layer boundary plus the VA-rotation phase each layer inherits from its
// start cycle, both bounded well under 2% of a whole-model run.
const pipelineReconcileTolerance = 0.02

// TestPipelineComparisonAcceptance is the tentpole acceptance gate:
// complete AlexNet on the mesh and the torus, with overlap strictly
// faster than barrier and the barrier totals reconciling with the
// analytic composition within the stated tolerance, every reduction
// oracle exact.
func TestPipelineComparisonAcceptance(t *testing.T) {
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	rows, err := PipelineComparison(Options{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	byMode := map[string]map[string]PipelineRow{}
	for _, r := range rows {
		if r.OracleErrors != 0 {
			t.Errorf("%s/%s: %d oracle errors", r.Topology, r.Mode, r.OracleErrors)
		}
		if r.Cycles <= 0 {
			t.Errorf("%s/%s: non-positive cycles %d", r.Topology, r.Mode, r.Cycles)
		}
		if byMode[r.Topology] == nil {
			byMode[r.Topology] = map[string]PipelineRow{}
		}
		byMode[r.Topology][r.Mode] = r
	}
	for _, topo := range []string{"mesh", "torus"} {
		analytic := byMode[topo]["analytic"]
		barrier := byMode[topo]["barrier"]
		overlap := byMode[topo]["overlap"]
		if overlap.Cycles >= barrier.Cycles {
			t.Errorf("%s: overlap (%d cycles) not strictly below barrier (%d)", topo, overlap.Cycles, barrier.Cycles)
		}
		if rel := math.Abs(float64(barrier.Cycles-analytic.Cycles)) / float64(analytic.Cycles); rel > pipelineReconcileTolerance {
			t.Errorf("%s: barrier %d vs analytic %d cycles diverge by %.2f%% (tolerance %.0f%%)",
				topo, barrier.Cycles, analytic.Cycles, rel*100, pipelineReconcileTolerance*100)
		}
	}
}

// TestMultiJobReport covers the batched serving regime: every inference
// job completes with an exact oracle, per-job latency samples are
// populated, and the fairness figures are well-formed.
func TestMultiJobReport(t *testing.T) {
	rep, err := MultiJob(Options{Rounds: 1, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Jobs); got != 5 { // 4 inferences + background
		t.Fatalf("got %d job rows, want 5", got)
	}
	if rep.OracleErrors != 0 {
		t.Errorf("%d oracle errors", rep.OracleErrors)
	}
	if rep.OrphanPackets != 0 || rep.OrphanPayloads != 0 {
		t.Errorf("orphans: %d packets, %d payloads", rep.OrphanPackets, rep.OrphanPayloads)
	}
	for i, j := range rep.Jobs {
		if j.Cycles <= 0 {
			t.Errorf("job %s: non-positive makespan %d", j.Job, j.Cycles)
		}
		if j.Packets == 0 {
			t.Errorf("job %s: no packets delivered", j.Job)
		}
		if inference := i < len(rep.Jobs)-1; inference && j.Slowdown < 1 {
			t.Errorf("job %s: slowdown %.3f < 1", j.Job, j.Slowdown)
		}
	}
	if rep.MaxMinSlowdown < 1 {
		t.Errorf("max/min slowdown %.3f < 1", rep.MaxMinSlowdown)
	}
	// The fairness figures cover the inference jobs only: with four
	// near-identical staggered inferences the max/min slowdown must stay
	// near 1, not reflect the background job's much longer window.
	if rep.MaxMinSlowdown > 2 {
		t.Errorf("inference max/min slowdown %.3f implausibly high — background job leaked into fairness?", rep.MaxMinSlowdown)
	}
	if rep.JainFairness <= 0 || rep.JainFairness > 1 {
		t.Errorf("Jain index %.3f out of (0,1]", rep.JainFairness)
	}
	if RenderMultiJob(rep) == "" {
		t.Error("empty render")
	}
}
