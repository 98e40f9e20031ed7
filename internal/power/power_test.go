package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestComputeBreakdown(t *testing.T) {
	c := Coefficients{
		BufferWrite: 1, BufferRead: 2, RouteCompute: 3, VAAllocation: 4,
		SAArbitration: 5, CrossbarTraversal: 6, LinkTraversal: 7,
		GatherUpload: 8, StreamHop: 9, MAC: 10,
	}
	e := Events{
		BufferWrites: 1, BufferReads: 1, RCComputations: 1, VAAllocations: 1,
		SAGrants: 1, Crossings: 1, LinkFlits: 1, GatherUploads: 1,
		StreamHops: 1, MACs: 1,
	}
	r := Compute(e, c, 100, 1)
	if r.RouterPJ != 1+2+3+4+5+6+8 {
		t.Errorf("RouterPJ = %v, want 29", r.RouterPJ)
	}
	if r.LinkPJ != 7 || r.StreamPJ != 9 || r.ComputePJ != 10 {
		t.Errorf("link/stream/compute = %v/%v/%v", r.LinkPJ, r.StreamPJ, r.ComputePJ)
	}
	if r.NoCPJ != 29+7+9 {
		t.Errorf("NoCPJ = %v, want 45", r.NoCPJ)
	}
	if r.TotalPJ != 55 {
		t.Errorf("TotalPJ = %v, want 55", r.TotalPJ)
	}
	// 45 pJ over 100 cycles at 1 GHz = 0.45 pJ/ns = 0.45 mW.
	if math.Abs(r.AvgPowerMW-0.45) > 1e-9 {
		t.Errorf("AvgPowerMW = %v, want 0.45", r.AvgPowerMW)
	}
}

func TestComputeZeroCycles(t *testing.T) {
	r := Compute(Events{LinkFlits: 5}, DefaultCoefficients(), 0, 1)
	if r.AvgPowerMW != 0 {
		t.Errorf("AvgPowerMW = %v, want 0 for zero cycles", r.AvgPowerMW)
	}
}

func TestEventsAdd(t *testing.T) {
	a := Events{BufferWrites: 1, LinkFlits: 2, MACs: 3}
	b := Events{BufferWrites: 10, StreamHops: 5}
	s := a.Add(b)
	if s.BufferWrites != 11 || s.LinkFlits != 2 || s.MACs != 3 || s.StreamHops != 5 {
		t.Errorf("Add = %+v", s)
	}
}

func TestImprovementPercent(t *testing.T) {
	if got := ImprovementPercent(200, 150); got != 25 {
		t.Errorf("ImprovementPercent = %v, want 25", got)
	}
	if got := ImprovementPercent(0, 10); got != 0 {
		t.Errorf("zero base should return 0, got %v", got)
	}
	if got := ImprovementPercent(100, 110); got != -10 {
		t.Errorf("regression should be negative, got %v", got)
	}
}

// Property: energy is monotone in every event count.
func TestEnergyMonotone(t *testing.T) {
	c := DefaultCoefficients()
	f := func(w, extra uint16) bool {
		base := Events{BufferWrites: uint64(w), LinkFlits: uint64(w)}
		more := base
		more.LinkFlits += uint64(extra)
		rb := Compute(base, c, 1, 1)
		rm := Compute(more, c, 1, 1)
		return rm.NoCPJ >= rb.NoCPJ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compute is linear — Compute(a+b) = Compute(a) + Compute(b) in
// every energy component.
func TestEnergyLinear(t *testing.T) {
	c := DefaultCoefficients()
	f := func(a, b uint8) bool {
		ea := Events{BufferWrites: uint64(a), Crossings: uint64(a), StreamHops: uint64(b)}
		eb := Events{BufferReads: uint64(b), LinkFlits: uint64(a), MACs: uint64(a)}
		sum := Compute(ea.Add(eb), c, 1, 1)
		parts := Compute(ea, c, 1, 1).TotalPJ + Compute(eb, c, 1, 1).TotalPJ
		return math.Abs(sum.TotalPJ-parts) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultCoefficientsPositive(t *testing.T) {
	c := DefaultCoefficients()
	vals := []float64{
		c.BufferWrite, c.BufferRead, c.RouteCompute, c.VAAllocation,
		c.SAArbitration, c.CrossbarTraversal, c.LinkTraversal,
		c.GatherUpload, c.StreamHop, c.MAC,
	}
	for i, v := range vals {
		if v <= 0 {
			t.Errorf("coefficient %d not positive: %v", i, v)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Compute(Events{LinkFlits: 1}, DefaultCoefficients(), 10, 1)
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestImprovementPercentZeroBaseline(t *testing.T) {
	if got := ImprovementPercent(0, 0); got != 0 {
		t.Errorf("ImprovementPercent(0,0) = %v, want 0", got)
	}
	if got := ImprovementPercent(0, -5); got != 0 {
		t.Errorf("ImprovementPercent(0,-5) = %v, want 0", got)
	}
	if got := ImprovementPercent(100, 100); got != 0 {
		t.Errorf("identical runs should improve 0%%, got %v", got)
	}
	if got := ImprovementPercent(100, 0); got != 100 {
		t.Errorf("eliminating all energy should be 100%%, got %v", got)
	}
}

// TestReduceMergeEnergy pins the INA adder-per-merge accounting: merges
// contribute to router energy, and the per-merge cost is far below the
// per-hop traversal energy a merged operand's own packet would have paid —
// the sign condition that makes in-network accumulation an energy win.
func TestReduceMergeEnergy(t *testing.T) {
	c := DefaultCoefficients()
	base := Compute(Events{}, c, 1, 1)
	merged := Compute(Events{ReduceMerges: 10}, c, 1, 1)
	if got, want := merged.RouterPJ-base.RouterPJ, 10*c.ReduceMerge; math.Abs(got-want) > 1e-9 {
		t.Errorf("10 merges added %.3f pJ, want %.3f", got, want)
	}
	perHop := c.BufferWrite + c.BufferRead + c.CrossbarTraversal + c.LinkTraversal
	if c.ReduceMerge >= perHop {
		t.Errorf("ReduceMerge %.3f pJ not below one flit-hop %.3f pJ", c.ReduceMerge, perHop)
	}
	if c.ReduceMerge <= 0 {
		t.Errorf("ReduceMerge coefficient not positive: %v", c.ReduceMerge)
	}
}

func TestEventsAddIncludesReduceMerges(t *testing.T) {
	a := Events{ReduceMerges: 3}
	b := Events{ReduceMerges: 4, GatherUploads: 1}
	s := a.Add(b)
	if s.ReduceMerges != 7 || s.GatherUploads != 1 {
		t.Errorf("Add = %+v", s)
	}
}
