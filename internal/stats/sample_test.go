package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// referenceOrder orders float64s as Sample does: ascending, -0 before +0,
// a NaN with its sign bit set below every other value and one without it
// above.
func referenceOrder(a, b float64) int {
	if r := nanRank(a) - nanRank(b); r != 0 {
		return r
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.Signbit(a) && !math.Signbit(b):
		return -1
	case !math.Signbit(a) && math.Signbit(b):
		return 1
	}
	return 0
}

// nanRank is -1 for a NaN with its sign bit set, 1 for one without, and 0
// for every other value.
func nanRank(v float64) int {
	switch {
	case !math.IsNaN(v):
		return 0
	case math.Signbit(v):
		return -1
	}
	return 1
}

// exactnessObservations draws n observations over a mix that a counting
// sample must keep exact: whole numbers, negatives, fractions, both zeros
// and values at and past 2^53, where neighbouring integers are no longer
// all representable. Many repeat, as latencies do.
func exactnessObservations(rng *rand.Rand, n int) []float64 {
	obs := make([]float64, n)
	for i := range obs {
		switch rng.Intn(7) {
		case 0:
			obs[i] = float64(rng.Intn(50))
		case 1:
			obs[i] = -float64(rng.Intn(1000))
		case 2:
			obs[i] = float64(rng.Intn(40)) / 3
		case 3:
			obs[i] = math.Copysign(0, -1)
		case 4:
			obs[i] = 0
		case 5:
			obs[i] = 1<<53 + float64(2*rng.Intn(8))
		default:
			obs[i] = math.Ldexp(float64(rng.Intn(9)+1), 60+rng.Intn(900))
		}
	}
	return obs
}

// checkAgainstReference compares every statistic of s, bit for bit, with
// the ones a sorted slice of the observations gives.
func checkAgainstReference(t *testing.T, what string, s *Sample, obs []float64) {
	t.Helper()
	var sum float64
	for _, v := range obs {
		sum += v
	}
	sorted := slices.Clone(obs)
	slices.SortFunc(sorted, referenceOrder)
	same := func(stat string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s = %v (bits %x), want %v (bits %x)", what, stat, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if s.N() != len(obs) {
		t.Fatalf("%s: N = %d, want %d", what, s.N(), len(obs))
	}
	if slices.ContainsFunc(obs, math.IsNaN) {
		// Which NaN a sum of two NaNs carries is left to the hardware and
		// the compiled order of the operands.
		if !math.IsNaN(s.Sum()) || !math.IsNaN(s.Mean()) {
			t.Errorf("%s: Sum %v, Mean %v over a NaN", what, s.Sum(), s.Mean())
		}
		sum = s.Sum()
	}
	same("Sum", s.Sum(), sum)
	if len(obs) == 0 {
		same("Mean", s.Mean(), 0)
		same("Min", s.Min(), 0)
		same("Max", s.Max(), 0)
		same("Percentile(NaN)", s.Percentile(math.NaN()), 0)
		return
	}
	same("Mean", s.Mean(), sum/float64(len(obs)))
	same("Min", s.Min(), sorted[0])
	same("Max", s.Max(), sorted[len(sorted)-1])
	for _, p := range []float64{0, 1, 50, 99, 100} {
		rank := max(int(math.Ceil(p/100*float64(len(obs))))-1, 0)
		same("Percentile", s.Percentile(p), sorted[rank])
	}
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("%s: Percentile(NaN) = %v, want NaN", what, got)
	}
}

// TestSampleExactness: a counting sample reports what the sorted
// observations report, bit for bit, and so does the sample its JSON form
// decodes to (the binary codec's twin of this check is in package flit).
func TestSampleExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 5, 64, 1000, 20_000} {
		for trial := 0; trial < 4; trial++ {
			obs := exactnessObservations(rng, n)
			var s Sample
			for _, v := range obs {
				s.Observe(v)
			}
			checkAgainstReference(t, "observed", &s, obs)
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			var back Sample
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
			checkAgainstReference(t, "JSON round trip", &back, obs)
		}
	}
}

// TestSampleExactAcrossTheSpill: a sample counts its first inline distinct
// values in place and moves them to a map at the next. On either side of
// that boundary (inline−1, inline and inline+1 distinct values), with a NaN
// of either sign, both zeros and a value past 2^53 among them, arriving in
// any order, every statistic is what the sorted observations give, bit for
// bit.
func TestSampleExactAcrossTheSpill(t *testing.T) {
	values := []float64{math.NaN(), math.Copysign(0, -1), math.Copysign(math.NaN(), -1), 0, 1<<53 + 2, -7.5, 2}
	for k := inline - 1; k <= inline+1; k++ {
		distinct := values[:k]
		for order := 0; order < 3; order++ {
			var obs []float64
			for i := 0; i < 3*k; i++ {
				switch order {
				case 0:
					obs = append(obs, distinct[i%k])
				case 1:
					obs = append(obs, distinct[k-1-i%k])
				default:
					obs = append(obs, distinct[(i%k+i/k)%k])
				}
			}
			var s Sample
			for _, v := range obs {
				s.Observe(v)
			}
			checkAgainstReference(t, fmt.Sprintf("%d distinct, order %d", k, order), &s, obs)
			if spilled := s.spill != nil; spilled != (k > inline) {
				t.Errorf("%d distinct values: spilled %v", k, spilled)
			}
		}
	}
}

// TestSampleJSONAcrossTheSpill: on either side of the boundary the JSON
// form is the one a sample that counted every value in a map wrote, and it
// decodes to a sample equal to the one observed, field for field, so a
// result read back from the cache equals the one computed.
func TestSampleJSONAcrossTheSpill(t *testing.T) {
	nz, big := math.Copysign(0, -1), float64(1<<53+2)
	for _, c := range []struct {
		obs  []float64
		want string
	}{
		{[]float64{2, 0, nz, 2, 0}, "[5,4616189618054758400,-0,1,0,2,2,2]"},
		{[]float64{2, 0, nz, 2, 0, big}, "[6,4845873199050653699,-0,1,0,2,2,2,9007199254740994,1]"},
		{[]float64{2, 0, nz, 2, 0, big, -7.5, big}, "[8,4850376798678024192,-7.5,1,-0,1,0,2,2,2,9007199254740994,2]"},
	} {
		var s Sample
		for _, v := range c.obs {
			s.Observe(v)
		}
		raw, err := json.Marshal(s)
		if err != nil || string(raw) != c.want {
			t.Errorf("%v: JSON %s (%v), want %s", c.obs, raw, err, c.want)
			continue
		}
		var back Sample
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%v: decoded %+v, observed %+v", c.obs, back, s)
		}
	}
}

// TestOrderStatisticsLeaveTheSampleAlone: reading Min, Max, Percentile,
// Counts or String changes nothing a codec or a later reader sees.
func TestOrderStatisticsLeaveTheSampleAlone(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 3, 9} {
		s.Observe(v)
	}
	before, _ := json.Marshal(s)
	_, _, _, _ = s.Min(), s.Max(), s.Percentile(50), s.String()
	s.Counts()
	if after, _ := json.Marshal(s); string(after) != string(before) {
		t.Fatalf("reading the sample changed its encoding from %s to %s", before, after)
	}
}

// maxRetainedSampleBytes pins what a sample of 10^6 observations over
// 1 000 distinct values allocates, and so at most retains: the count table
// and the smaller tables it grew out of, 74 456 bytes. Holding every
// observation took 8 MB.
const maxRetainedSampleBytes = 96 << 10

func TestSampleRetainedBytesPin(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s Sample
	for i := 0; i < 1_000_000; i++ {
		s.Observe(float64(i*7919%1000) + 0.5)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("10^6 observations over 1000 values allocate %d bytes", allocated)
	if allocated > maxRetainedSampleBytes {
		t.Errorf("10^6 observations over 1000 values allocate %d bytes, pin %d", allocated, maxRetainedSampleBytes)
	}
	if s.N() != 1_000_000 {
		t.Fatal("sample lost observations")
	}
}

// TestObserveDoesNotAllocateOnceSeen: observing values already counted
// allocates nothing, in place or in the map; a sample that never sees more
// than inline distinct values allocates nothing at all.
func TestObserveDoesNotAllocateOnceSeen(t *testing.T) {
	for _, distinct := range []int{inline, 100} {
		var s Sample
		for v := 0; v < distinct; v++ {
			s.Observe(float64(v))
		}
		v := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			s.Observe(float64(v % distinct))
			v++
		}); allocs != 0 {
			t.Errorf("%d distinct values: Observe of a counted value allocates %v times", distinct, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var s Sample
		for v := 0; v < 3*inline; v++ {
			s.Observe(float64(v % inline))
		}
	}); allocs != 0 {
		t.Errorf("a sample of %d distinct values allocates %v times", inline, allocs)
	}
}

// pairs returns a Restore source for values and their counts.
func pairs(values []float64, counts []uint64) func() (float64, uint64, error) {
	i := 0
	return func() (float64, uint64, error) {
		i++
		return values[i-1], counts[i-1], nil
	}
}

// TestRestoreRefusesMalformedCounts: Restore takes only what Counts could
// have returned, and leaves the sample alone otherwise.
func TestRestoreRefusesMalformedCounts(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		values []float64
		counts []uint64
	}{
		{"counts short of n", 3, []float64{1, 2}, []uint64{1, 1}},
		{"counts past n", 1, []float64{1}, []uint64{2}},
		{"more values than observations", 1, []float64{1, 2}, []uint64{1, 1}},
		{"overflowing counts", 3, []float64{1, 2}, []uint64{math.MaxUint64, 3}},
		{"zero count", 2, []float64{1, 2}, []uint64{1, 0}},
		{"descending values", 2, []float64{2, 1}, []uint64{1, 1}},
		{"repeated value", 2, []float64{1, 1}, []uint64{1, 1}},
		{"+0 before -0", 2, []float64{0, math.Copysign(0, -1)}, []uint64{1, 1}},
		{"negative n", -1, nil, nil},
	} {
		var s Sample
		s.Observe(42)
		if err := s.Restore(c.n, 0, len(c.values), pairs(c.values, c.counts)); !errors.Is(err, errBadSample) {
			t.Errorf("%s: Restore err %v, want errBadSample", c.name, err)
		}
		if s.N() != 1 || s.Max() != 42 {
			t.Errorf("%s: a refused Restore changed the sample", c.name)
		}
	}
	var s Sample
	failing := func() (float64, uint64, error) { return 0, 0, errors.New("truncated") }
	if err := s.Restore(1, 0, 1, failing); !errors.Is(err, errBadSample) {
		t.Errorf("a failing source: Restore err %v, want errBadSample", err)
	}
}

// TestObserveNMatchesRepeatedObserve: n observations at once leave the
// sample n Observe calls leave, in place and past the spill, for whole
// numbers (whose partial sums are exact); n <= 0 observes nothing.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	for _, distinct := range []int{3, 9} {
		var one, many Sample
		for v := 0; v < distinct; v++ {
			n := 1 + v*v%7
			for range n {
				one.Observe(float64(1000 + v))
			}
			many.ObserveN(float64(1000+v), n)
			many.ObserveN(float64(v), 0)
			many.ObserveN(float64(v), -3)
		}
		ov, oc := one.Counts()
		mv, mc := many.Counts()
		if one.N() != many.N() || one.Sum() != many.Sum() || !reflect.DeepEqual(ov, mv) || !reflect.DeepEqual(oc, mc) {
			t.Errorf("%d values: ObserveN gives %s, Observe %s", distinct, &many, &one)
		}
	}
}
