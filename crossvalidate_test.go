package gathernoc

import (
	"testing"

	"gathernoc/internal/analytic"
	"gathernoc/internal/cnn"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
)

// TestWireTrafficMatchesClosedForm replays one collection round of both
// schemes on the live simulator and requires the measured link-flit and
// buffer-write counters to equal the analytic closed forms exactly — the
// quantitative version of the paper's Fig. 1 resource argument.
func TestWireTrafficMatchesClosedForm(t *testing.T) {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	for _, gather := range []bool{false, true} {
		cfg := noc.DefaultConfig(8, 8)
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < cfg.Rows; row++ {
			for col := 0; col < cfg.Cols; col++ {
				id := nw.Topology().ID(topology.Coord{Row: row, Col: col})
				nw.NIC(id).SetDelta(cfg.Delta * int64(1+col))
			}
		}
		events := traffic.GenerateLayerTrace(layer, cfg.Rows, cfg.Cols, gather, 0, nw.Topology().NumNodes())
		rp, err := traffic.NewReplayer(nw, events)
		if err != nil {
			t.Fatal(err)
		}
		payloads := 0
		for row := 0; row < cfg.Rows; row++ {
			nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) { payloads += len(p.Payloads) })
		}
		if _, err := rp.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if payloads != 64 {
			t.Fatalf("gather=%v: payloads = %d, want 64", gather, payloads)
		}

		format, err := cfg.Format()
		if err != nil {
			t.Fatal(err)
		}
		model := analytic.Traffic{
			N: cfg.Rows, M: cfg.Cols,
			UnicastFlits: cfg.UnicastFlits,
			GatherFlits:  format.GatherFlits(cfg.EffectiveGatherCapacity()),
		}
		a := nw.Activity()
		wantLink := uint64(model.RULinkFlits())
		wantWrites := uint64(model.RUBufferWrites())
		if gather {
			wantLink = uint64(model.GatherLinkFlits())
			wantWrites = uint64(model.GatherBufferWrites())
		}
		if a.LinkFlits != wantLink {
			t.Errorf("gather=%v: link flits = %d, closed form %d", gather, a.LinkFlits, wantLink)
		}
		if a.BufferWrites != wantWrites {
			t.Errorf("gather=%v: buffer writes = %d, closed form %d", gather, a.BufferWrites, wantWrites)
		}
	}
}
