package traffic

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// newTestGenerator builds a size×size mesh and a uniform generator on it,
// not started.
func newTestGenerator(t *testing.T, size int, cfg GeneratorConfig) (*noc.Network, *Generator) {
	t.Helper()
	nw, err := noc.New(noc.DefaultConfig(size, size))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	if cfg.Pattern == nil {
		cfg.Pattern = UniformRandom{Nodes: size * size}
	}
	if cfg.PacketFlits == 0 {
		cfg.PacketFlits = 2
	}
	g, err := NewGeneratorDriver(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw, g
}

// runGenerator runs g alone on nw to quiescence, as NewGenerator + Run do.
func runGenerator(t *testing.T, nw *noc.Network, g *Generator) *GeneratorResult {
	t.Helper()
	nw.OnReceive(g.OnPacket)
	g.Start(0)
	res, err := g.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// acceptedLoadTolerance is how far, as a share of the offered load, the
// accepted load of a run well below saturation may stray from it: the
// packets in flight across the window's edges, about mean latency over
// Measure (≈0.5 % here), plus their count's noise.
const acceptedLoadTolerance = 0.03

// The accepted load counts packets by the cycle they eject. Past the
// knee it stays at what the fabric carries while the offered load rises,
// and the run reads as saturated with a backlog at the window end; well
// below it, it follows the offered load. Counting by inject cycle instead
// makes accepted equal offered at any load, which the saturated half
// refuses.
func TestGeneratorAcceptedLoad(t *testing.T) {
	nw, g := newTestGenerator(t, 4, GeneratorConfig{InjectionRate: 0.9, Warmup: 200, Measure: 2000, Seed: 1})
	hot := runGenerator(t, nw, g)
	t.Logf("4x4 at 0.9: offered %.4f, accepted %.4f, backlog %d", hot.Offered, hot.Throughput, hot.Backlog)
	if hot.Offered < 0.85 || hot.Throughput > 0.5 || !hot.Saturated() {
		t.Errorf("4x4 at 0.9: offered %.4f, accepted %.4f, saturated %v; want accepted far below offered, saturated",
			hot.Offered, hot.Throughput, hot.Saturated())
	}
	if hot.Backlog < 1000 {
		t.Errorf("4x4 at 0.9: backlog %d at the window end, want the queues' thousands", hot.Backlog)
	}
	if hot.Received != hot.Injected {
		t.Errorf("4x4 at 0.9: received %d of %d measured packets after the drain", hot.Received, hot.Injected)
	}

	nw, g = newTestGenerator(t, 4, GeneratorConfig{InjectionRate: 0.01, Warmup: 500, Measure: 8000, Seed: 1})
	cool := runGenerator(t, nw, g)
	t.Logf("4x4 at 0.01: offered %.4f, accepted %.4f, backlog %d", cool.Offered, cool.Throughput, cool.Backlog)
	if math.Abs(cool.Throughput-cool.Offered) > acceptedLoadTolerance*cool.Offered || cool.Saturated() {
		t.Errorf("4x4 at 0.01: accepted %.4f, offered %.4f, saturated %v; want within %.0f%%, not saturated",
			cool.Throughput, cool.Offered, cool.Saturated(), acceptedLoadTolerance*100)
	}
}

// The offered load follows the injection rate: within four standard
// errors of the binomial count of nodes × Measure trials at each rate.
func TestGeneratorOfferedLoad(t *testing.T) {
	const nodes, measure = 16, 20_000
	for _, rate := range []float64{0.005, 0.05, 0.3} {
		nw, g := newTestGenerator(t, 4, GeneratorConfig{InjectionRate: rate, Warmup: 100, Measure: measure, Seed: 5})
		nw.OnReceive(g.OnPacket)
		g.Start(0)
		cycles, err := nw.Engine().RunWith(g, g.Injected, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		res := g.Result(cycles)
		tol := 4 * math.Sqrt(rate*(1-rate)/(nodes*measure))
		t.Logf("rate %v: offered %.5f (tolerance %.5f)", rate, res.Offered, tol)
		if math.Abs(res.Offered-rate) > tol {
			t.Errorf("rate %v: offered %.5f, more than %.5f away", rate, res.Offered, tol)
		}
	}
}

// geometricChiSquare returns the chi-square statistic of gaps (each ≥ 1)
// against the law of a Bernoulli(p) process's inter-arrival times,
// P(gap = k) = (1−p)^(k−1) p, over bins edged at edges (the last bin open),
// and the degrees of freedom.
func geometricChiSquare(gaps []int64, p float64, edges []int64) (float64, int) {
	counts := make([]float64, len(edges))
	for _, gap := range gaps {
		i, _ := slices.BinarySearch(edges, gap+1)
		counts[i-1]++
	}
	// P(gap >= k) = (1-p)^(k-1).
	tail := func(k int64) float64 { return math.Pow(1-p, float64(k-1)) }
	chi := 0.0
	for i, lo := range edges {
		prob := tail(lo)
		if i+1 < len(edges) {
			prob -= tail(edges[i+1])
		}
		want := prob * float64(len(gaps))
		chi += (counts[i] - want) * (counts[i] - want) / want
	}
	return chi, len(edges) - 1
}

// chiSquare999 is the 0.999 quantile of the chi-square law at 9 degrees
// of freedom: a node's histogram over ten bins that exceeds it is refused
// at the 0.1 % level.
const chiSquare999 = 27.877

// Per node, the inter-arrival times of the packets the generator injects
// follow the geometric law of a Bernoulli(p) process, tested with a
// chi-square over ten bins, each expecting 100 gaps or more, at the 0.1 %
// level, at two rates and fixed seeds.
func TestGeneratorInterArrivalLaw(t *testing.T) {
	for _, c := range []struct {
		rate  float64
		edges []int64
	}{
		{0.05, []int64{1, 3, 5, 8, 11, 14, 19, 24, 32, 46}},
		{0.3, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 11}},
	} {
		nw, g := newTestGenerator(t, 4, GeneratorConfig{InjectionRate: c.rate, Measure: 20_000, Seed: 11})
		arrivals := make([][]int64, 16)
		nw.OnReceive(func(p *nic.ReceivedPacket) {
			g.OnPacket(p)
			arrivals[p.Src] = append(arrivals[p.Src], p.InjectCycle)
		})
		g.Start(0)
		done := func() bool { return g.Injected() && nw.Quiescent() }
		if _, err := nw.Engine().RunWith(g, done, 10_000_000); err != nil {
			t.Fatal(err)
		}
		for id, at := range arrivals {
			slices.Sort(at)
			gaps := make([]int64, 0, len(at))
			for i := 1; i < len(at); i++ {
				gaps = append(gaps, at[i]-at[i-1])
			}
			chi, df := geometricChiSquare(gaps, c.rate, c.edges)
			if df != 9 || chi > chiSquare999 {
				t.Errorf("rate %v node %d: chi-square %.1f over %d gaps (df %d), 0.999 quantile %.1f",
					c.rate, id, chi, len(gaps), df, chiSquare999)
			}
		}
	}
}

// recordingPattern is UniformRandom that logs the source of every
// destination it picks, in the order the generator asks.
type recordingPattern struct {
	UniformRandom
	srcs *[]topology.NodeID
}

func (r recordingPattern) Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	*r.srcs = append(*r.srcs, src)
	return r.UniformRandom.Destination(src, rng)
}

// The nodes whose arrival falls on one cycle inject in ascending node id.
func TestGeneratorInjectsInNodeOrder(t *testing.T) {
	var srcs []topology.NodeID
	nw, g := newTestGenerator(t, 4, GeneratorConfig{
		Pattern: recordingPattern{UniformRandom{Nodes: 16}, &srcs}, InjectionRate: 0.5, Measure: 200, Seed: 3,
	})
	nw.OnReceive(g.OnPacket)
	g.Start(0)
	eng := nw.Engine()
	eng.AddTicker(g)
	busy := 0
	for !g.Injected() {
		srcs = srcs[:0]
		eng.RunUntil(func() bool { return false }, 1)
		for i := 1; i < len(srcs); i++ {
			if srcs[i] <= srcs[i-1] {
				t.Fatalf("cycle %d: sources in the order %v", eng.Cycle()-1, srcs)
			}
		}
		if len(srcs) > 1 {
			busy++
		}
	}
	if busy < 100 {
		t.Errorf("only %d cycles with two or more arrivals", busy)
	}
}

// p = 0 never injects; p = 1 injects from every node on every cycle of the
// window; p = 1e-300 draws gaps far past any window, and a gap that large
// is no arrival, not an overflowed cycle.
func TestGeneratorRateEdges(t *testing.T) {
	for _, c := range []struct {
		rate float64
		want uint64
	}{
		{0, 0},
		{1, 16 * 300},
		{1e-300, 0},
		{5e-324, 0},
	} {
		nw, g := newTestGenerator(t, 4, GeneratorConfig{InjectionRate: c.rate, Warmup: 100, Measure: 300, Seed: 2})
		nw.OnReceive(g.OnPacket)
		g.Start(0)
		if c.rate < 1 {
			for id, at := range g.next {
				if at != sim.Never {
					t.Fatalf("rate %v: node %d arrives at cycle %d", c.rate, id, at)
				}
			}
		}
		res, err := g.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Injected != c.want || (c.rate < 1 && g.Sent() != 0) {
			t.Errorf("rate %v: injected %d in the window (sent %d), want %d", c.rate, res.Injected, g.Sent(), c.want)
		}
		if c.rate == 1 && g.Sent() != 16*400 {
			t.Errorf("rate 1: sent %d over warm-up and window, want %d", g.Sent(), 16*400)
		}
	}
}

// generatorStateBytes encodes a generator state with the given base,
// injecting flag, draw count and next-arrival table; every count and
// sample zero.
func generatorStateBytes(base int64, injecting bool, draws uint64, next []int64) []byte {
	var e flit.Encoder
	e.ResetAbsolute(nil)
	e.Int(base)
	e.Bool(injecting)
	for _, c := range []uint64{0, 0, 0, 0, draws} {
		e.Uint(c)
	}
	for i := 0; i < 4; i++ {
		e.Sample(&stats.Sample{})
	}
	e.Uint(0) // accepted
	e.Uint(0) // backlog
	e.Uint(uint64(len(next)))
	for _, at := range next {
		e.Int(at)
	}
	return e.Bytes()
}

// loadGeneratorState decodes data into g (LoadState).
func loadGeneratorState(g *Generator, data []byte) error {
	var d flit.Decoder
	d.Reset(data, 0, 0)
	return g.LoadState(&d)
}

// LoadState refuses, by name, a next-arrival table that is not one entry
// per node, an arrival before the restored clock, and an arrival at or
// past the window end, or while not injecting, that is not sim.Never;
// it loads the same table with every arrival in range.
func TestGeneratorLoadStateRefusesArrivals(t *testing.T) {
	nw, g := newTestGenerator(t, 2, GeneratorConfig{InjectionRate: 0.1, Warmup: 50, Measure: 50, Seed: 1})
	nw.Engine().RestoreCycle(60)
	load := func(data []byte) error { return loadGeneratorState(g, data) }
	const never = int64(sim.Never)
	for _, c := range []struct {
		name      string
		injecting bool
		next      []int64
		want      error
	}{
		{"short table", true, []int64{60, 61, 62}, errArrivalTable},
		{"long table", true, []int64{60, 61, 62, 63, 64}, errArrivalTable},
		{"empty table", true, nil, errArrivalTable},
		{"before the clock", true, []int64{60, 59, never, 99}, errArrivalPast},
		{"at the window end", true, []int64{60, 100, never, 99}, errArrivalWindow},
		{"far past the window", true, []int64{60, never - 1, never, 99}, errArrivalWindow},
		{"not injecting", false, []int64{never, never, 70, never}, errArrivalWindow},
	} {
		if err := load(generatorStateBytes(0, c.injecting, 100, c.next)); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	if err := load(generatorStateBytes(0, true, 100, []int64{60, never, 61, 99})); err != nil {
		t.Fatalf("arrivals in range: %v", err)
	}
	if g.due != 60 || g.src.draws != 100 {
		t.Errorf("loaded due %d, draws %d; want 60, 100", g.due, g.src.draws)
	}
}
