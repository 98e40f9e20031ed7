package traffic

import (
	"bytes"
	"strings"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
)

// FuzzReplayTrace takes any bytes through Read, NewReplayer on a 4x4 mesh
// with row sinks, and a replay with a small cycle budget. The invariants:
// nothing panics, and a trace NewReplayer accepts whose events all fall
// well inside the budget, and whose packets are short enough to drain in
// it, replays to completion without error.
func FuzzReplayTrace(f *testing.F) {
	for _, seed := range []string{
		`{"cycle":0,"type":"unicast","src":0,"dst":5}`,
		`{"cycle":0,"type":"multicast","src":0,"dsts":[1,40]}`,
		`{"cycle":0,"type":"multicast","src":0,"dsts":[1,99999]}`,
		`{"cycle":0,"type":"multicast","src":0}`,
		`{"cycle":0,"type":"multicast","src":3,"dsts":[0,15],"flits":-2}`,
		`{"cycle":0,"type":"gather","src":4,"dst":17,"seq":1,"value":4}` + "\n" +
			`{"cycle":0,"type":"payload","src":5,"dst":17,"seq":2,"value":5}`,
		`{"cycle":2,"type":"unicast","src":15,"dst":0,"flits":3}` + "\n" +
			`{"cycle":1,"type":"unicast","src":0,"dst":15}`,
	} {
		f.Add([]byte(seed))
	}
	const budget = 20_000
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		if err != nil || len(events) > 64 {
			return
		}
		nw, err := noc.New(noc.DefaultConfig(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		feasible := true
		for _, e := range events {
			if e.Flits > 1024 {
				return // a packet's flits are allocated up front: a memory test, not a trace test
			}
			// Far-off events or long packets may legitimately need more
			// than the budget; they only have to fail cleanly.
			feasible = feasible && e.Cycle <= budget/4 && e.Flits <= 16
		}
		rp, err := NewReplayer(nw, events)
		if err != nil {
			return
		}
		if _, err := rp.Run(budget); err != nil && feasible {
			t.Fatalf("accepted trace failed to replay: %v\n%s", err, data)
		}
	})
}

// FuzzGeneratorState loads any bytes as the state of a generator on a 4x4
// mesh whose clock stands at cycle 120, inside the injection window. The
// invariants: nothing panics; a state LoadState refuses is refused with a
// traffic: error; a state it loads resumes, injecting until its window
// ends and draining within the budget.
func FuzzGeneratorState(f *testing.F) {
	cfg := GeneratorConfig{
		Pattern: UniformRandom{Nodes: 16}, InjectionRate: 0.1, PacketFlits: 2,
		Warmup: 50, Measure: 100, Seed: 1,
	}
	const clock = 120
	never := func() bool { return false }
	for _, at := range []int64{0, 60, clock} {
		nw, err := noc.New(noc.DefaultConfig(4, 4))
		if err != nil {
			f.Fatal(err)
		}
		g, err := NewGenerator(nw, cfg)
		if err != nil {
			f.Fatal(err)
		}
		nw.Engine().AddTicker(g)
		nw.Engine().RunUntil(never, at)
		var e flit.Encoder
		e.ResetAbsolute(nil)
		g.AppendState(&e)
		f.Add(e.Bytes())
		f.Add(e.Bytes()[:len(e.Bytes())-3])
		nw.Close()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := noc.New(noc.DefaultConfig(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		nw.Engine().RestoreCycle(clock)
		g, err := NewGenerator(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadGeneratorState(g, data); err != nil {
			if !strings.HasPrefix(err.Error(), "traffic: ") {
				t.Fatalf("refused without a name: %v", err)
			}
			return
		}
		done := func() bool { return g.Injected() && nw.Quiescent() }
		if _, err := nw.Engine().RunWith(g, done, 20_000); err != nil {
			t.Fatalf("a loaded state did not resume: %v", err)
		}
	})
}
