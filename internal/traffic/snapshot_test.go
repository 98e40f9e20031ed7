package traffic

import (
	"errors"
	"math/rand"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
)

// The generator's Bernoulli trials draw through countingSource.float64:
// the values, and the source's position after them, must be math/rand's.
func TestCountingSourceFloat64MatchesRand(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		src := newCountingSource(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			if got, want := src.float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: %v, rand.Float64 %v", seed, i, got, want)
			}
		}
		if src.draws != 10000 {
			t.Errorf("seed %d: %d draws counted, want 10000", seed, src.draws)
		}
		if got, want := src.Int63(), ref.Int63(); got != want {
			t.Errorf("seed %d: the streams part after the trials: %d, rand %d", seed, got, want)
		}
	}
}

// LoadState refuses a draw count above maxDrawsPerTrial per node and
// injecting cycle, and an injection base outside the run, before it
// discards a draw, and loads the largest count the bound allows.
func TestGeneratorLoadStateBoundsDrawCount(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Engine().RestoreCycle(120)
	g, err := NewGeneratorDriver(nw, GeneratorConfig{
		Pattern: UniformRandom{Nodes: 16}, InjectionRate: 0.1, PacketFlits: 2,
		Warmup: 50, Measure: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := func(base int64, draws uint64) []byte {
		var e flit.Encoder
		e.ResetAbsolute(nil)
		e.Int(base)
		e.Bool(false)
		for i := 0; i < 4; i++ {
			e.Uint(0)
		}
		e.Uint(draws)
		for i := 0; i < 4; i++ {
			e.Sample(&stats.Sample{})
		}
		return e.Bytes()
	}
	load := func(data []byte) error {
		var d flit.Decoder
		d.Reset(data, 0, 0)
		return g.LoadState(&d)
	}
	perCycle := uint64(maxDrawsPerTrial * 16)
	for _, c := range []struct {
		base  int64
		draws uint64
	}{
		{0, 100*perCycle + 1},   // injecting cycles: the whole window
		{30, 90*perCycle + 1},   // injecting cycles: from the base to the clock
		{120, 1},                // admitted at the clock: nothing drawn yet
		{0, 1 << 63},            // a damaged count
		{121, 0},                // a base after the clock
		{-1, 0},                 // a base before the first cycle
		{-1 << 62, 1 << 62},     // both damaged
		{0, ^uint64(0)},         // the largest count
		{1 << 62, ^uint64(0)},   // both damaged the other way
		{120 - 1, perCycle + 1}, // one injecting cycle
	} {
		err := load(state(c.base, c.draws))
		if err == nil {
			t.Fatalf("base %d, %d draws: loaded", c.base, c.draws)
		}
		if c.base >= 0 && c.base <= 120 && !errors.Is(err, errDrawCount) {
			t.Errorf("base %d, %d draws: %v, want errDrawCount", c.base, c.draws, err)
		}
		if g.src.draws != 0 {
			t.Fatalf("base %d, %d draws: %d draws discarded before the refusal", c.base, c.draws, g.src.draws)
		}
	}
	if err := load(state(30, 90*perCycle)); err != nil {
		t.Fatalf("the bound itself: %v", err)
	}
	if g.src.draws != 90*perCycle || g.base != 30 {
		t.Errorf("loaded draws %d, base %d; want %d, 30", g.src.draws, g.base, 90*perCycle)
	}
}
