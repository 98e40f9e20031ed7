package noc

import (
	"math/rand"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// TestRandomTrafficConservation floods the network with randomized unicast,
// multicast and gather traffic and asserts global conservation: every
// unicast/gather packet is ejected exactly once, every multicast packet
// exactly once per destination, and every gather payload exactly once —
// across many seeds.
func TestRandomTrafficConservation(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(4, 4)
		nw := mustNetwork(t, cfg)
		nodes := nw.Topology().NumNodes()

		wantDeliveries := 0
		gotDeliveries := 0
		wantPayloads := 0
		gotPayloads := map[uint64]int{}

		count := func(p *nic.ReceivedPacket) {
			gotDeliveries++
			for _, pl := range p.Payloads {
				gotPayloads[pl.Seq]++
			}
		}
		for id := 0; id < nodes; id++ {
			nw.NIC(topology.NodeID(id)).OnReceive(count)
		}
		for row := 0; row < cfg.Rows; row++ {
			nw.Sink(row).OnReceive(count)
		}

		seq := uint64(0)
		for i := 0; i < 60; i++ {
			src := topology.NodeID(rng.Intn(nodes))
			n := nw.NIC(src)
			switch rng.Intn(4) {
			case 0: // unicast to a PE
				dst := topology.NodeID(rng.Intn(nodes))
				if dst == src {
					continue
				}
				seq++
				n.SendUnicastPayload(0, dst, flit.Payload{Seq: seq, Src: src, Dst: dst, Bits: 32})
				wantDeliveries++
				wantPayloads++
			case 1: // unicast to a row sink
				dst := nw.RowSinkID(rng.Intn(cfg.Rows))
				seq++
				n.SendUnicastPayload(0, dst, flit.Payload{Seq: seq, Src: src, Dst: dst, Bits: 32})
				wantDeliveries++
				wantPayloads++
			case 2: // multicast to a random subset
				set := topology.NewDestSet(nodes)
				for k := 0; k < 1+rng.Intn(5); k++ {
					d := topology.NodeID(rng.Intn(nodes))
					if d != src {
						set.Add(d)
					}
				}
				if set.Len() == 0 {
					continue
				}
				n.SendMulticast(0, set, 1+rng.Intn(3))
				wantDeliveries += set.Len()
			case 3: // gather packet toward the source row's sink
				row := nw.Topology().Coord(src).Row
				dst := nw.RowSinkID(row)
				seq++
				own := flit.Payload{Seq: seq, Src: src, Dst: dst, Bits: 32}
				n.SendGather(0, dst, &own)
				wantDeliveries++
				wantPayloads++
			}
		}

		// Step manually so invariants can be checked mid-flight.
		eng := nw.Engine()
		for i := 0; i < 50; i++ {
			eng.Step()
			if err := nw.CheckInvariants(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, eng.Cycle(), err)
			}
		}
		if _, err := nw.RunUntilQuiescent(200000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("seed %d drained: %v", seed, err)
		}
		if gotDeliveries != wantDeliveries {
			t.Errorf("seed %d: deliveries = %d, want %d", seed, gotDeliveries, wantDeliveries)
		}
		if len(gotPayloads) != wantPayloads {
			t.Errorf("seed %d: distinct payloads = %d, want %d", seed, len(gotPayloads), wantPayloads)
		}
		for s, n := range gotPayloads {
			if n != 1 {
				t.Errorf("seed %d: payload %d delivered %d times", seed, s, n)
			}
		}
	}
}

// TestGatherProtocolRandomized deposits payloads at random PEs with random
// offsets around randomly timed gather initiations and asserts that every
// payload reaches its row sink exactly once, whether by piggyback or by
// δ-timeout self-initiation.
func TestGatherProtocolRandomized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		cfg := DefaultConfig(4, 4)
		cfg.Delta = int64(rng.Intn(12)) // deliberately varied, incl. tiny
		nw := mustNetwork(t, cfg)

		got := map[uint64]int{}
		for row := 0; row < cfg.Rows; row++ {
			nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) {
				for _, pl := range p.Payloads {
					got[pl.Seq]++
				}
			})
		}

		type deposit struct {
			at   int64
			node topology.NodeID
			p    flit.Payload
			init bool
		}
		var plan []deposit
		seq := uint64(0)
		for row := 0; row < cfg.Rows; row++ {
			dst := nw.RowSinkID(row)
			for col := 0; col < cfg.Cols; col++ {
				if rng.Intn(3) == 0 {
					continue // this PE produces nothing
				}
				id := nw.Topology().ID(topology.Coord{Row: row, Col: col})
				seq++
				plan = append(plan, deposit{
					at:   int64(rng.Intn(30)),
					node: id,
					p:    flit.Payload{Seq: seq, Src: id, Dst: dst, Bits: 32},
					init: col == 0,
				})
			}
		}

		eng := nw.Engine()
		for cycle := int64(0); cycle <= 30; cycle++ {
			for _, d := range plan {
				if d.at != cycle {
					continue
				}
				if d.init {
					own := d.p
					nw.NIC(d.node).SendGather(0, d.p.Dst, &own)
				} else {
					nw.NIC(d.node).SubmitPayload(reduce.GatherStation, 0, d.p)
				}
			}
			eng.Step()
		}
		if _, err := nw.RunUntilQuiescent(100000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		if len(got) != len(plan) {
			t.Errorf("seed %d (delta=%d): %d payloads delivered, want %d",
				seed, cfg.Delta, len(got), len(plan))
		}
		for s, n := range got {
			if n != 1 {
				t.Errorf("seed %d: payload %d delivered %d times", seed, s, n)
			}
		}
	}
}

func TestHeatmapRendering(t *testing.T) {
	nw := mustNetwork(t, DefaultConfig(3, 3))
	// Idle network: every grid glyph is the idle marker.
	for _, line := range gridLines(nw.UtilizationHeatmap()) {
		for i := 0; i < len(line); i++ {
			if line[i] != '.' && line[i] != ' ' {
				t.Errorf("idle heatmap shows activity glyph %q in %q", line[i], line)
			}
		}
	}
	nw.NIC(0).SendUnicastN(0, 8, 2)
	if _, err := nw.RunUntilQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	hot := false
	for _, line := range gridLines(nw.UtilizationHeatmap()) {
		for i := 0; i < len(line); i++ {
			if line[i] == '@' {
				hot = true
			}
		}
	}
	if !hot {
		t.Errorf("active heatmap lacks peak glyph:\n%s", nw.UtilizationHeatmap())
	}
}

// gridLines strips the footer from a heatmap rendering.
func gridLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if len(lines) > 0 {
		lines = lines[:len(lines)-1] // drop the "(...)" footer
	}
	return lines
}
