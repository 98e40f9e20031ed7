package analytic

import (
	"testing"
	"testing/quick"
)

// linkFlitSaving is the wire-traffic reduction of gather over RU, in
// percent: Fig. 1's argument as one number.
func linkFlitSaving(t Traffic) float64 {
	return float64(t.RULinkFlits()-t.GatherLinkFlits()) / float64(t.RULinkFlits()) * 100
}

func TestTrafficClosedForms(t *testing.T) {
	// The 8x8 Table I configuration, one round.
	tr := Traffic{N: 8, M: 8, UnicastFlits: 2, GatherFlits: 4}
	// Per row: 2 flits x sum_{c=0..7} (8-c+1) = 2 x (9+8+...+2) = 88.
	if got := tr.RULinkFlits(); got != 704 {
		t.Errorf("RULinkFlits = %d, want 704", got)
	}
	// Per row: 4 flits x 9 links = 36.
	if got := tr.GatherLinkFlits(); got != 288 {
		t.Errorf("GatherLinkFlits = %d, want 288", got)
	}
	// Per row: 2 x (8+7+...+1) = 72 buffer writes.
	if got := tr.RUBufferWrites(); got != 576 {
		t.Errorf("RUBufferWrites = %d, want 576", got)
	}
	if got := tr.GatherBufferWrites(); got != 256 {
		t.Errorf("GatherBufferWrites = %d, want 256", got)
	}
	if got := linkFlitSaving(tr); got < 59 || got > 60 {
		t.Errorf("saving = %.2f%%, want ~59%%", got)
	}
}

func TestTrafficFig1Example(t *testing.T) {
	// Fig. 1's 6x6 mesh, single row (N=1): with 1-flit packets the RU
	// inter-router traversals are 15 (the paper's count) plus 6 injection
	// and 6 sink crossings.
	tr := Traffic{N: 1, M: 6, UnicastFlits: 1, GatherFlits: 1}
	interRouter := tr.RUBufferWrites() - tr.M // buffer writes minus source routers
	if interRouter != 15 {
		t.Errorf("RU inter-router hops = %d, want 15 (Fig. 1a)", interRouter)
	}
	if got := tr.GatherBufferWrites() - 1; got != 5 {
		t.Errorf("gather inter-router hops = %d, want 5 (Fig. 1b)", got)
	}
}

// Property: gather always saves wire traffic, and the saving grows with
// the mesh width when compared one payload-slot period (3 columns) apart
// — comparing adjacent widths is not monotone because the gather packet
// length quantizes to whole flits (3 payloads each), briefly diluting the
// saving right after each length step.
func TestTrafficSavingGrowsWithWidth(t *testing.T) {
	gflits := func(m int) int { return 1 + (m+2)/3 }
	f := func(raw uint8) bool {
		m := int(raw)%14 + 2
		a := Traffic{N: m, M: m, UnicastFlits: 2, GatherFlits: gflits(m)}
		b := Traffic{N: m + 3, M: m + 3, UnicastFlits: 2, GatherFlits: gflits(m + 3)}
		if a.GatherLinkFlits() >= a.RULinkFlits() {
			return false
		}
		return linkFlitSaving(b) > linkFlitSaving(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
