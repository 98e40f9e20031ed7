// Package stats provides the measurement primitives the simulator reports
// through: counters and scalar samples with min/mean/max/percentiles. All
// types have useful zero values and are not safe for concurrent use (the
// simulator is single-threaded).
package stats

import (
	"fmt"
	"math"
	"sort"

	"gathernoc/internal/ring"
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
// Observations are retained so percentiles are exact.
//
// Storage is chunked: observations land in fixed-size blocks that are
// never copied or abandoned, so the bytes ever allocated equal the bytes
// retained (a single growing slice abandons ~4x the final size to the
// garbage collector under Go's append growth policy). Chunk capacities
// ramp geometrically from sampleChunkMin to sampleChunkMax so small
// samples stay small.
type Sample struct {
	chunks [][]float64
	n      int
	sum    float64
	// sorted caches the flattened, sorted observations for the order
	// statistics (Min/Max/Percentile); Observe invalidates it.
	sorted []float64
}

const (
	sampleChunkMin = 64
	sampleChunkMax = 4096
)

// Observe records one observation.
func (s *Sample) Observe(v float64) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		capNext := s.n
		if capNext < sampleChunkMin {
			capNext = sampleChunkMin
		}
		if capNext > sampleChunkMax {
			capNext = sampleChunkMax
		}
		s.chunks = append(s.chunks, make([]float64, 0, capNext))
		last++
	}
	s.chunks[last] = append(s.chunks[last], v)
	s.n++
	s.sum += v
	s.sorted = nil
}

// Each calls f with every observation in insertion order: observing them
// again rebuilds the sample exactly.
func (s *Sample) Each(f func(float64)) {
	for _, chunk := range s.chunks {
		for _, v := range chunk {
			f(v)
		}
	}
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
	if s.n == 0 {
		return 0
	}
	return s.ensureSorted()[0]
}

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.ensureSorted()[s.n-1]
}

// Percentile returns the p-th percentile using nearest-rank on the sorted
// observations: the value at rank ceil(p/100 * n), so for n observations
// Percentile(100k/n) is exactly the k-th smallest and no interpolation is
// ever performed. Out-of-range p clamps (p <= 0 yields the minimum,
// p >= 100 the maximum), an empty sample yields 0 for every p, and a NaN
// p yields NaN — int(math.Ceil(NaN)) is platform-dependent, so it must
// not reach the rank computation.
func (s *Sample) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	sorted := s.ensureSorted()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[s.n-1]
	}
	rank := int(math.Ceil(p/100*float64(s.n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= s.n {
		rank = s.n - 1
	}
	return sorted[rank]
}

// String summarizes the sample for reports.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.0f p50=%.0f p99=%.0f max=%.0f",
		s.N(), s.Mean(), s.Min(), s.Percentile(50), s.Percentile(99), s.Max())
}

func (s *Sample) ensureSorted() []float64 {
	if s.sorted == nil {
		s.sorted = make([]float64, 0, s.n)
		for _, chunk := range s.chunks {
			s.sorted = append(s.sorted, chunk...)
		}
		sort.Float64s(s.sorted)
	}
	return s.sorted
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

// Arena serves many samples their first chunk, and the room for it in the
// sample's chunk list, out of a few shared allocations: a fabric of a
// thousand ejectors would otherwise make two allocations per latency
// sample on its first packet. The zero value is ready and allocates
// nothing until a sample asks (ObserveIn).
type Arena struct {
	floats ring.Runs[float64]
	lists  ring.Runs[[]float64]
}

// NewArena returns an arena for n samples (ring.Runs).
func NewArena(n int) Arena { return Arena{ring.NewRuns[float64](n), ring.NewRuns[[]float64](n)} }

// ObserveIn is Observe, taking the sample's first chunk from a when it has
// none.
func (s *Sample) ObserveIn(a *Arena, v float64) {
	if s.chunks == nil {
		s.chunks = a.lists.Take(1)
		s.chunks[0] = a.floats.Take(sampleChunkMin)[:0]
	}
	s.Observe(v)
}
