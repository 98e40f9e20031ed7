package traffic

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"gathernoc/internal/flit"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
)

// countingSource wraps the standard seeded source with a draw counter.
// The wrapper is draw-transparent — every value comes straight from the
// wrapped source — so a generator built on it produces exactly the
// numbers the plain rand.NewSource generator did. Snapshots record the
// count; restore reconstructs the source from the seed and discards the
// same number of draws. Both Int63 and Uint64 of the runtime source
// advance its state by exactly one step, so uniform discarding via
// Uint64 lands on the identical state regardless of which method the
// original draws used (rejection-sampling loops included: they draw
// through this wrapper too, so the count reflects actual consumption).
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// float64 is rand.Rand.Float64 drawn straight from the source, counted: Go
// 1's float64(Int63())/(1<<63), redrawn on the rare value that rounds to 1.
// It yields the value stream and advances the source exactly as
// rand.New(s).Float64 does, minus the two interface calls per draw; the
// generator draws every arrival's gap through it.
func (s *countingSource) float64() float64 {
	for {
		s.draws++
		if f := float64(s.src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// skipTo re-seeds the source and discards n draws, reproducing the state
// a source that made n draws since seeding would be in.
func (s *countingSource) skipTo(seed int64, n uint64) {
	s.src.Seed(seed)
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws = n
}

// AppendState appends the generator's progress (flit.Encoder, absolute
// mode): injection window base and state, the packet counts, the RNG
// position — how many values the generator has drawn from its seeded
// source — the measured samples, the accepted and backlog counts, and
// every node's next arrival cycle. The configuration (pattern, rates,
// windows, seed) is not written: a resuming run reconstructs the generator
// from the same config.
func (g *Generator) AppendState(e *flit.Encoder) {
	e.Int(g.base)
	e.Bool(g.injecting)
	for _, c := range []uint64{g.injected, g.received, g.sent, g.delivered, g.src.draws} {
		e.Uint(c)
	}
	for _, s := range g.samples() {
		e.Sample(s)
	}
	e.Uint(g.accepted)
	e.Uint(g.backlog)
	e.Uint(uint64(len(g.next)))
	for _, at := range g.next {
		e.Int(at)
	}
}

// samples lists the measured samples, in the order AppendState writes them.
func (g *Generator) samples() []*stats.Sample {
	return []*stats.Sample{&g.res.Latency, &g.res.QueueLatency, &g.res.NetworkLatency, &g.res.Hops}
}

// maxDrawsPerArrival bounds the draws one node's arrival can take: the
// destination's, a few even through the rejection loops of rand.Intn and
// of a destination that names its source, then the next gap's, one (two on
// the value that rounds to 1, which comes once in 2^53 or so). Start's
// first gap per node is one more such arrival. Reaching 64 needs dozens
// of rejections in a row at every arrival.
const maxDrawsPerArrival = 64

// Named refusals of a generator state LoadState cannot have been written
// by a run of the same configuration. errDrawCount: replaying the count
// would take time out of proportion to the run, or for ever.
var (
	errDrawCount     = errors.New("draw count beyond what the run could have made")
	errArrivalTable  = errors.New("next-arrival table not one entry per node")
	errArrivalPast   = errors.New("next arrival before the clock")
	errArrivalWindow = errors.New("next arrival outside the injection window")
)

// LoadState rewinds a freshly constructed generator (same config as the
// encoded one; Start may have drawn its first arrivals, which are
// replaced) to the progress AppendState wrote, RNG position and next
// arrivals included. Call it once the network is restored. A draw count
// above maxDrawsPerArrival per node for Start and each injecting cycle up
// to the network's clock is refused (errDrawCount) before a draw is
// discarded, and so is a next-arrival table that is not one entry per node
// (errArrivalTable), an arrival before the clock (errArrivalPast), or one
// at or past the window end that is not sim.Never, or any but sim.Never
// while not injecting (errArrivalWindow).
func (g *Generator) LoadState(d *flit.Decoder) error {
	if g.sent != 0 || g.delivered != 0 {
		return fmt.Errorf("traffic: LoadState needs a fresh generator")
	}
	g.base = d.Int()
	g.injecting = d.Bool()
	g.injected, g.received, g.sent, g.delivered = d.Uint(), d.Uint(), d.Uint(), d.Uint()
	draws := d.Uint()
	for _, s := range g.samples() {
		d.Sample(s)
	}
	g.accepted, g.backlog = d.Uint(), d.Uint()
	n := d.Len()
	if d.Err() == nil && n != len(g.next) {
		return fmt.Errorf("traffic: generator state: %w: %d entries for %d nodes", errArrivalTable, n, len(g.next))
	}
	for id := range n {
		g.next[id] = d.Int()
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("traffic: generator state: %w", err)
	}
	now := g.nw.Engine().Cycle()
	if g.base < 0 || g.base > now {
		return fmt.Errorf("traffic: generator state: injection base %d outside [0, %d]", g.base, now)
	}
	trials := uint64(min(now-g.base, g.cfg.Warmup+g.cfg.Measure)) + 1
	hi, limit := bits.Mul64(trials, maxDrawsPerArrival*uint64(len(g.next)))
	if hi == 0 && draws > limit {
		return fmt.Errorf("traffic: generator state: %w: %d, at most %d", errDrawCount, draws, limit)
	}
	for id, at := range g.next {
		switch {
		case at == sim.Never:
		case !g.injecting || at >= g.end():
			return fmt.Errorf("traffic: generator state: %w: node %d at cycle %d", errArrivalWindow, id, at)
		case at < now:
			return fmt.Errorf("traffic: generator state: %w: node %d at cycle %d, clock %d", errArrivalPast, id, at, now)
		}
	}
	g.due = sim.Never
	if g.injecting {
		g.due = min(g.end(), slices.Min(g.next))
	}
	g.src.skipTo(g.cfg.Seed, draws)
	return nil
}
