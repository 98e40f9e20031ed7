package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"gathernoc/internal/cnn"
)

// tableIIParams returns the calibrated 8x8 parameters of DESIGN.md §4.
func tableIIParams(crr int) Params {
	return Params{
		N: 8, M: 8, Kappa: 4, UnicastFlits: 2, GatherFlits: 4,
		Eta: 8, TMAC: 5, CRR: crr,
	}
}

func TestReproducesTableIIEstimatedRow(t *testing.T) {
	// Paper Table II, "Estimated" row for AlexNet on the 8x8 mesh.
	paper := map[string]float64{
		"Conv1": 2.92, "Conv2": 0.73, "Conv3": 0.68, "Conv4": 0.34, "Conv5": 0.51,
	}
	// Conv1's published value appears to carry a rounding quirk in the
	// paper's own arithmetic; every other layer matches to the printed
	// precision (see DESIGN.md §4).
	tolerance := map[string]float64{
		"Conv1": 0.07, "Conv2": 0.005, "Conv3": 0.005, "Conv4": 0.005, "Conv5": 0.005,
	}
	for _, layer := range cnn.AlexNetConvLayers() {
		p := tableIIParams(layer.MACsPerPE())
		got := p.Improvement()
		want := paper[layer.Name]
		if math.Abs(got-want) > tolerance[layer.Name] {
			t.Errorf("%s: improvement = %.3f%%, paper says %.2f%% (tol %.3f)",
				layer.Name, got, want, tolerance[layer.Name])
		}
	}
}

func TestCollectionTerms(t *testing.T) {
	p := tableIIParams(363)
	// RU: M(κ+L/W)−1 = 8*(4+2)−1 = 47.
	if got := p.RUCollection(); got != 47 {
		t.Errorf("RUCollection = %d, want 47", got)
	}
	// Gather with η=M: one packet, M·κ + L'/W − 1 = 32+3 = 35.
	if got := p.GatherCollection(); got != 35 {
		t.Errorf("GatherCollection = %d, want 35", got)
	}
	if got := p.GatherRound(); got != 363+5+35 {
		t.Errorf("GatherRound = %d, want %d", got, 363+5+35)
	}
}

func TestGatherCollectionMultiplePackets(t *testing.T) {
	p := tableIIParams(100)
	p.Eta = 4 // two gather packets per row: i=0 and i=1
	// i=0: 8*4 + 3 = 35 ; i=1: (8-4)*4 + 3 = 19.
	if got := p.GatherCollection(); got != 54 {
		t.Errorf("GatherCollection = %d, want 54", got)
	}
}

func TestCongestionTermsRaiseLatency(t *testing.T) {
	base := tableIIParams(363)
	congested := base
	congested.DeltaR = 20
	congested.DeltaG = 4
	congested.TDelta = 2
	if congested.RUCollection() != base.RUCollection()+20 {
		t.Error("DeltaR not additive")
	}
	if congested.GatherCollection() != base.GatherCollection()+6 {
		t.Error("DeltaG/TDelta not additive")
	}
	// RU-side terms raise the improvement. The simulator's row exceeds
	// the estimate by such a term, but it is not congestion: the global
	// buffer's per-packet cost s above κ stalls each RU packet after the
	// row's first, (s − κ)(M − 1) cycles per row (TestSinkCostAgainstEqs2to4
	// in internal/core); at s = κ the simulated row is Eq. 4's.
	if congested.Improvement() <= base.Improvement() {
		t.Error("RU-side congestion should increase improvement")
	}
}

// Property: improvement decreases monotonically as C·R·R grows (the
// paper's explanation for Conv1 showing the largest improvement).
func TestImprovementMonotoneInCRR(t *testing.T) {
	f := func(a, b uint16) bool {
		ca, cb := int(a)+1, int(b)+1
		if ca > cb {
			ca, cb = cb, ca
		}
		if ca == cb {
			return true
		}
		pa, pb := tableIIParams(ca), tableIIParams(cb)
		return pa.Improvement() >= pb.Improvement()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a 16-wide mesh improves at least as much as an 8-wide mesh for
// the same layer (the paper's network-size observation), given the
// format-derived gather packet lengths.
func TestWiderMeshImprovesMore(t *testing.T) {
	f := func(raw uint16) bool {
		crr := int(raw)%4000 + 27
		p8 := tableIIParams(crr)
		p16 := p8
		p16.M, p16.N, p16.Eta, p16.GatherFlits = 16, 16, 16, 7
		return p16.Improvement() > p8.Improvement()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestImprovementZeroGuard(t *testing.T) {
	p := Params{N: 1, M: 1, Kappa: 1, UnicastFlits: 1, GatherFlits: 1, Eta: 1}
	// GatherRound is tiny but nonzero here; force the zero case directly.
	z := Params{}
	if z.Improvement() != 0 {
		t.Error("zero params should yield 0 improvement")
	}
	_ = p.Improvement() // must not divide by zero
}
