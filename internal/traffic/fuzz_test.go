package traffic

import (
	"bytes"
	"testing"

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
