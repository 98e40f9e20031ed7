package experiments

import (
	"math"
	"testing"
)

// TestTopologyComparison is the acceptance test for the topology ×
// routing sweep: every cell completes, the measured mean hop count of
// every minimal routing tracks the analytic uniform-traffic bound, and
// the torus's wrap-aware routing strictly cuts hops (and with them
// network latency) relative to the mesh at every sampled load.
func TestTopologyComparison(t *testing.T) {
	rows, err := TopologyComparison(Options{Meshes: []int{4}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The mesh under each of its three routings, the torus under XY.
	wantRows := (3 + 1) * len(TopologyComparisonRates)
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	meshXY := map[float64]TopologyRow{}
	torusXY := map[float64]TopologyRow{}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Errorf("%s/%s@%v: zero throughput", r.Topology, r.Routing, r.Rate)
		}
		// Minimal routing: the measured hop mean sits at the analytic
		// bound, modulo the finite sample of random pairs.
		if math.Abs(r.AvgHops-r.MeanHopBound) > 0.4 {
			t.Errorf("%s/%s@%v: avg hops %.2f vs bound %.2f", r.Topology, r.Routing, r.Rate, r.AvgHops, r.MeanHopBound)
		}
		if r.AvgHops > float64(r.MaxHopBound) {
			t.Errorf("%s/%s@%v: avg hops %.2f exceed diameter %d", r.Topology, r.Routing, r.Rate, r.AvgHops, r.MaxHopBound)
		}
		if r.Topology == "mesh" && r.Routing == "xy" {
			meshXY[r.Rate] = r
		}
		if r.Topology == "torus" && r.Routing == "xy" {
			torusXY[r.Rate] = r
		}
	}
	for rate, mr := range meshXY {
		tr, ok := torusXY[rate]
		if !ok {
			t.Fatalf("missing torus xy row at rate %v", rate)
		}
		if tr.AvgHops >= mr.AvgHops {
			t.Errorf("rate %v: torus hops %.2f not below mesh hops %.2f", rate, tr.AvgHops, mr.AvgHops)
		}
		if tr.MaxHopBound >= mr.MaxHopBound {
			t.Errorf("torus diameter %d not below mesh diameter %d", tr.MaxHopBound, mr.MaxHopBound)
		}
	}
	if s := RenderTopologyComparison(rows); len(s) == 0 {
		t.Error("empty rendering")
	}
}
