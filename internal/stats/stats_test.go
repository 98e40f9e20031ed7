package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Errorf("Value = %d, want 2", c.Value())
	}
}

func TestSampleSummary(t *testing.T) {
	var s Sample
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Observe(v)
	}
	if s.N() != 5 || s.Sum() != 15 {
		t.Fatalf("N=%d Sum=%v", s.N(), s.Sum())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleObserveAfterSort(t *testing.T) {
	var s Sample
	s.Observe(10)
	_ = s.Min() // forces sort
	s.Observe(1)
	if s.Min() != 1 {
		t.Errorf("Min after late observation = %v, want 1", s.Min())
	}
}

// TestPercentileTable pins the nearest-rank semantics edge by edge: the
// telemetry epoch summaries lean on Percentile, so its behavior at p=0,
// p=100, out-of-range and NaN p, and tiny samples is contract, not
// accident.
func TestPercentileTable(t *testing.T) {
	tests := []struct {
		name string
		obs  []float64
		p    float64
		want float64
	}{
		{"empty p50", nil, 50, 0},
		{"empty p0", nil, 0, 0},
		{"empty p100", nil, 100, 0},
		{"empty NaN", nil, math.NaN(), 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"single tiny p", []float64{7}, 0.001, 7},
		{"p0 is min", []float64{4, 1, 3}, 0, 1},
		{"negative p clamps to min", []float64{4, 1, 3}, -10, 1},
		{"p100 is max", []float64{4, 1, 3}, 100, 4},
		{"p>100 clamps to max", []float64{4, 1, 3}, 250, 4},
		{"-Inf clamps to min", []float64{4, 1, 3}, math.Inf(-1), 1},
		{"+Inf clamps to max", []float64{4, 1, 3}, math.Inf(1), 4},
		// Nearest-rank on n=4: rank = ceil(p/100*4), no interpolation.
		{"n=4 p25 -> 1st", []float64{10, 20, 30, 40}, 25, 10},
		{"n=4 p25+eps -> 2nd", []float64{10, 20, 30, 40}, 25.0001, 20},
		{"n=4 p50 -> 2nd", []float64{10, 20, 30, 40}, 50, 20},
		{"n=4 p75 -> 3rd", []float64{10, 20, 30, 40}, 75, 30},
		{"n=4 p99 -> 4th", []float64{10, 20, 30, 40}, 99, 40},
		{"n=5 p50 -> 3rd", []float64{10, 20, 30, 40, 50}, 50, 30},
		{"duplicates p50", []float64{5, 5, 5, 1}, 50, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var s Sample
			for _, v := range tc.obs {
				s.Observe(v)
			}
			if got := s.Percentile(tc.p); got != tc.want {
				t.Errorf("Percentile(%v) over %v = %v, want %v", tc.p, tc.obs, got, tc.want)
			}
		})
	}
}

// A NaN p must not panic or produce a platform-dependent rank; it yields
// NaN on a non-empty sample.
func TestPercentileNaNP(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3} {
		s.Observe(v)
	}
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %v, want NaN", got)
	}
}

// Property: percentiles are monotone in p and bracketed by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Observe(v)
		}
		if s.N() == 0 {
			return true
		}
		prev := s.Min()
		for p := 0.0; p <= 100; p += 10 {
			cur := s.Percentile(p)
			if cur < prev || cur > s.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringerOutputs(t *testing.T) {
	var s Sample
	s.Observe(1)
	if s.String() == "" {
		t.Error("Sample.String empty")
	}
}

func TestReductionStatsMerge(t *testing.T) {
	var r ReductionStats
	r.Merge(2, 5)
	r.Merge(2, 3)
	if r.PayloadsMerged != 2 {
		t.Errorf("PayloadsMerged = %d, want 2", r.PayloadsMerged)
	}
	if r.LinkTraversalsSaved != 16 {
		t.Errorf("LinkTraversalsSaved = %d, want 2*5+2*3=16", r.LinkTraversalsSaved)
	}
	if r.SinkTransactionsSaved != 2 {
		t.Errorf("SinkTransactionsSaved = %d, want 2", r.SinkTransactionsSaved)
	}
	// Degenerate inputs still count the merge but save no traversals.
	r.Merge(0, -1)
	if r.PayloadsMerged != 3 || r.LinkTraversalsSaved != 16 {
		t.Errorf("degenerate merge mis-accounted: %+v", r)
	}
}

func TestReductionStatsString(t *testing.T) {
	r := ReductionStats{PayloadsMerged: 7}
	if !strings.Contains(r.String(), "merged=7") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestMaxMinRatio(t *testing.T) {
	cases := []struct {
		vs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, -3}, 0},
		{[]float64{5}, 1},
		{[]float64{2, 8}, 4},
		{[]float64{4, 0, 2, -1, 8}, 4}, // non-positive values ignored
	}
	for _, tc := range cases {
		if got := MaxMinRatio(tc.vs); got != tc.want {
			t.Errorf("MaxMinRatio(%v) = %v, want %v", tc.vs, got, tc.want)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Errorf("JainIndex(nil) = %v, want 0", got)
	}
	if got := JainIndex([]float64{3, 3, 3}); got != 1 {
		t.Errorf("equal shares: %v, want 1", got)
	}
	// One dominant value among n drives the index toward 1/n.
	skewed := JainIndex([]float64{1000, 1e-9, 1e-9, 1e-9})
	if skewed > 0.3 || skewed <= 0.25-1e-6 {
		t.Errorf("skewed shares: %v, want just above 1/4", skewed)
	}
	if even, uneven := JainIndex([]float64{5, 5}), JainIndex([]float64{9, 1}); uneven >= even {
		t.Errorf("uneven (%v) not below even (%v)", uneven, even)
	}
}
