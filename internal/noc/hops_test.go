package noc

import (
	"math/rand"
	"testing"

	"gathernoc/internal/nic"
	"gathernoc/internal/topology"
)

// TestHopAccountingMatchesManhattan verifies end to end that XY-routed
// packets traverse exactly Manhattan-distance+1 routers, and that
// west-first routing is minimal too.
func TestHopAccountingMatchesManhattan(t *testing.T) {
	for _, algo := range []string{"xy", "westfirst"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			cfg := DefaultConfig(5, 5)
			cfg.Routing = algo
			nw := mustNetwork(t, cfg)
			type want struct {
				src, dst topology.NodeID
			}
			byID := map[uint64]want{}
			var got []*nic.ReceivedPacket
			for id := 0; id < nw.Topology().NumNodes(); id++ {
				id := topology.NodeID(id)
				nw.NIC(id).OnReceive(func(p *nic.ReceivedPacket) { got = append(got, p.Clone()) })
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 30; i++ {
				src := topology.NodeID(rng.Intn(25))
				dst := topology.NodeID(rng.Intn(25))
				if src == dst {
					continue
				}
				pid := nw.NIC(src).SendUnicastN(0, dst, 2)
				byID[pid] = want{src: src, dst: dst}
			}
			if _, err := nw.RunUntilQuiescent(100000); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(byID) {
				t.Fatalf("received %d, want %d", len(got), len(byID))
			}
			for _, p := range got {
				w := byID[p.ID]
				wantHops := nw.Topology().Hops(w.src, w.dst) + 1
				if p.Hops != wantHops {
					t.Errorf("%s: packet %d->%d hops = %d, want %d",
						algo, w.src, w.dst, p.Hops, wantHops)
				}
			}
		})
	}
}

// TestGatherHopCountMatchesFig1 checks the Fig. 1 arithmetic on the live
// simulator: a gather packet crossing a full row visits every row router
// once.
func TestGatherHopCountMatchesFig1(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	nw := mustNetwork(t, cfg)
	row := 2
	dst := nw.RowSinkID(row)
	var hops int
	nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) { hops = p.Hops })
	left := nw.Topology().ID(topology.Coord{Row: row, Col: 0})
	own := flitPayloadAt(1, left, dst)
	nw.NIC(left).SendGather(0, dst, &own)
	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	// 6 routers across the row; the 5 inter-router hops are the paper's
	// "5 hops" of Fig. 1(b).
	if hops != 6 {
		t.Errorf("gather packet visited %d routers, want 6", hops)
	}
}
