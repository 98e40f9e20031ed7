// Package stats provides the measurement primitives the simulator reports
// through: counters and scalar samples with min/mean/max/percentiles. All
// types have useful zero values and are not safe for concurrent use (the
// simulator is single-threaded).
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Set sets the count, restoring one a snapshot recorded.
func (c *Counter) Set(n uint64) { c.n = n }

// Sample accumulates scalar observations and reports summary statistics.
// It keeps an exact count per distinct value, so the order statistics are
// exact and its memory grows with the distinct values observed, not with
// the observations: a latency sample of a million packets over a thousand
// latencies holds a thousand counts. The first few distinct values
// (inline) are counted in the sample itself, sorted, so a round sample,
// which sees one to three, never allocates; past them the counts move to a
// map. The sum is accumulated in observation order, as adding the
// observations up one by one does.
//
// Values are told apart by their bits, so -0 and +0 are two values, -0 the
// smaller. The order statistics read the sample and never change it, so a
// sample may be read from several goroutines once nothing observes into it.
// A copy of a Sample that has spilled its counts to the map shares the
// map: observe into one of them only.
type Sample struct {
	// keys[:k] are the distinct values' keys (key), ascending, and
	// counts[:k] their counts, until the sample sees more than inline
	// distinct values; from then on spill maps every key to its count and
	// k is 0.
	keys   [inline]uint64
	counts [inline]uint64
	k      uint8
	spill  map[uint64]uint64
	n      int
	sum    float64
}

// inline is how many distinct values a sample counts in place. Every round
// sample of the paper's layer runs sees one; packet latency samples see
// hundreds, and spill.
const inline = 4

// errBadSample is the error of a sample encoding that describes no sample
// (Restore, UnmarshalJSON).
var errBadSample = errors.New("stats: malformed sample")

// key maps v to a key whose unsigned order is v's order: -Inf below every
// finite value, -0 just below +0 (a NaN sorts below -Inf with its sign bit
// set, above +Inf without).
func key(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// value inverts key.
func value(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// Observe records one observation. It allocates only for a value not
// observed before, and then only when the sample spills past inline
// distinct values or its map grows.
func (s *Sample) Observe(v float64) {
	s.add(key(v), 1)
	s.n++
	s.sum += v
}

// add counts c more observations of the value whose key is k.
func (s *Sample) add(k, c uint64) {
	if s.spill != nil {
		s.spill[k] += c
		return
	}
	i := 0
	for i < int(s.k) && s.keys[i] < k {
		i++
	}
	if i < int(s.k) && s.keys[i] == k {
		s.counts[i] += c
		return
	}
	if s.k == inline {
		s.spill = make(map[uint64]uint64, 2*inline)
		for j := range s.keys {
			s.spill[s.keys[j]] = s.counts[j]
		}
		s.keys, s.counts, s.k = [inline]uint64{}, [inline]uint64{}, 0
		s.spill[k] = c
		return
	}
	copy(s.keys[i+1:s.k+1], s.keys[i:s.k])
	copy(s.counts[i+1:s.k+1], s.counts[i:s.k])
	s.keys[i], s.counts[i] = k, c
	s.k++
}

// N returns the observation count.
func (s *Sample) N() int { return s.n }

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Sample) Min() float64 {
	switch {
	case s.n == 0:
		return 0
	case s.spill == nil:
		return value(s.keys[0])
	}
	least := uint64(math.MaxUint64)
	for k := range s.spill {
		least = min(least, k)
	}
	return value(least)
}

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 {
	switch {
	case s.n == 0:
		return 0
	case s.spill == nil:
		return value(s.keys[s.k-1])
	}
	var most uint64
	for k := range s.spill {
		most = max(most, k)
	}
	return value(most)
}

// Percentile returns the p-th percentile using nearest-rank on the sorted
// observations: the value at rank ceil(p/100 * n), so for n observations
// Percentile(100k/n) is exactly the k-th smallest and no interpolation is
// ever performed. Out-of-range p clamps (p <= 0 yields the minimum,
// p >= 100 the maximum), an empty sample yields 0 for every p, and a NaN
// p yields NaN — int(math.Ceil(NaN)) is platform-dependent, so it must
// not reach the rank computation.
func (s *Sample) Percentile(p float64) float64 {
	switch {
	case s.n == 0:
		return 0
	case math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return s.Min()
	case p >= 100:
		return s.Max()
	}
	// The counts add up to n, so the walk ends at a key.
	rank := uint64(min(max(int(math.Ceil(p/100*float64(s.n))), 1), s.n))
	keys := s.sorted()
	i := 0
	for ; rank > s.countOf(i, keys[i]); i++ {
		rank -= s.countOf(i, keys[i])
	}
	return value(keys[i])
}

// sorted returns the keys of the distinct values, ascending: the sample's
// own array while it counts in place, else a fresh slice.
func (s *Sample) sorted() []uint64 {
	if s.spill == nil {
		return s.keys[:s.k]
	}
	keys := make([]uint64, 0, len(s.spill))
	for k := range s.spill {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// countOf returns the count of key k, the i-th of sorted's.
func (s *Sample) countOf(i int, k uint64) uint64 {
	if s.spill != nil {
		return s.spill[k]
	}
	return s.counts[i]
}

// Counts returns the distinct values observed, ascending, and how many
// times each was observed: with N and Sum, the form both codecs write
// (flit.Encoder.Sample, MarshalJSON) and Restore reads back.
func (s *Sample) Counts() (values []float64, counts []uint64) {
	keys := s.sorted()
	values, counts = make([]float64, len(keys)), make([]uint64, len(keys))
	for i, k := range keys {
		values[i], counts[i] = value(k), s.countOf(i, k)
	}
	return values, counts
}

// Restore replaces s with the sample of n observations summing to sum
// that observed k distinct values, which next returns in turn with their
// counts: the form Counts gives. The values must ascend strictly, the
// counts be positive and add up to n, and the sum of no observations be
// +0; otherwise, or when next fails, Restore returns an error wrapping
// errBadSample and leaves s as it was. It stops calling next at the first
// failure.
func (s *Sample) Restore(n int, sum float64, k int, next func() (float64, uint64, error)) error {
	switch {
	case n < 0 || k < 0 || k > n:
		return fmt.Errorf("%w: %d distinct values in %d observations", errBadSample, k, n)
	case n == 0 && math.Float64bits(sum) != 0:
		return fmt.Errorf("%w: no observations summing to %v", errBadSample, sum)
	}
	restored := Sample{n: n, sum: sum}
	if k > inline {
		restored.spill = make(map[uint64]uint64, k)
	}
	var total, prev uint64
	for i := 0; i < k; i++ {
		v, c, err := next()
		switch {
		case err != nil:
			return fmt.Errorf("%w: %w", errBadSample, err)
		case c == 0:
			return fmt.Errorf("%w: value %v counted 0 times", errBadSample, v)
		case i > 0 && key(v) <= prev:
			return fmt.Errorf("%w: value %v after %v", errBadSample, v, value(prev))
		}
		if total += c; total < c || total > uint64(n) {
			return fmt.Errorf("%w: counts exceed the %d observations", errBadSample, n)
		}
		prev = key(v)
		if restored.spill != nil {
			restored.spill[prev] = c
		} else {
			restored.keys[i], restored.counts[i] = prev, c
			restored.k++
		}
	}
	if total != uint64(n) {
		return fmt.Errorf("%w: counts add up to %d of the %d observations", errBadSample, total, n)
	}
	*s = restored
	return nil
}

// String summarizes the sample for reports.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.0f p50=%.0f p99=%.0f max=%.0f",
		s.N(), s.Mean(), s.Min(), s.Percentile(50), s.Percentile(99), s.Max())
}

// ReductionStats accounts the wire-level work an in-network accumulation
// run avoided: every operand folded into a passing accumulate packet is a
// payload that no longer needs its own packet, so its would-be link
// traversals and its sink write transaction are saved. Workload layers
// record one Merge per ack, with the flit count and hop distance the
// operand's own unicast packet would have cost.
type ReductionStats struct {
	// PayloadsMerged counts operands folded into passing packets.
	PayloadsMerged uint64
	// LinkTraversalsSaved counts the flit-hops the merged operands'
	// own packets would have needed (packet flits × hops to the sink).
	LinkTraversalsSaved uint64
	// SinkTransactionsSaved counts the per-packet write transactions the
	// global buffer no longer pays (one per merged operand).
	SinkTransactionsSaved uint64
}

// Merge records one in-network merge of an operand whose fallback packet
// would have been packetFlits long and hopsToSink hops from home router to
// sink (negative inputs are ignored).
func (r *ReductionStats) Merge(packetFlits, hopsToSink int) {
	r.PayloadsMerged++
	if packetFlits > 0 && hopsToSink > 0 {
		r.LinkTraversalsSaved += uint64(packetFlits) * uint64(hopsToSink)
	}
	r.SinkTransactionsSaved++
}

// String summarizes the account for reports.
func (r ReductionStats) String() string {
	return fmt.Sprintf("merged=%d link-traversals-saved=%d sink-transactions-saved=%d",
		r.PayloadsMerged, r.LinkTraversalsSaved, r.SinkTransactionsSaved)
}
