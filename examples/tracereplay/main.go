// Tracereplay: generate a convolution-layer traffic trace (as the paper
// did from PyTorch layer shapes), serialize it to the JSON-lines format,
// read it back, and replay it cycle-accurately on the NoC — comparing the
// gather and repetitive-unicast versions of the same round.
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"fmt"
	"log"

	"gathernoc/internal/cnn"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
)

func main() {
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	if !ok {
		log.Fatal("AlexNet Conv3 missing")
	}

	for _, gather := range []bool{false, true} {
		mode := "repetitive unicast"
		if gather {
			mode = "gather"
		}

		cfg := noc.DefaultConfig(8, 8)
		nw, err := noc.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Scale per-column δ as the accelerator layer would.
		for row := 0; row < cfg.Rows; row++ {
			for col := 0; col < cfg.Cols; col++ {
				id := nw.Topology().ID(topology.Coord{Row: row, Col: col})
				nw.NIC(id).SetDelta(cfg.Delta * int64(1+col))
			}
		}

		// One round of result collection, starting after streaming+MAC.
		start := int64(layer.MACsPerPE() + cnn.TMAC)
		events := traffic.GenerateLayerTrace(layer, cfg.Rows, cfg.Cols, gather, start, nw.Topology().NumNodes())

		// Round-trip through the wire format.
		var buf bytes.Buffer
		if err := traffic.Write(&buf, events); err != nil {
			log.Fatal(err)
		}
		parsed, err := traffic.Read(&buf)
		if err != nil {
			log.Fatal(err)
		}

		rp, err := traffic.NewReplayer(nw, parsed)
		if err != nil {
			log.Fatal(err)
		}
		payloads, packets := 0, 0
		for row := 0; row < cfg.Rows; row++ {
			nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) {
				packets++
				payloads += len(p.Payloads)
			})
		}
		cycles, err := rp.Run(1_000_000)
		if err != nil {
			log.Fatal(err)
		}
		a := nw.Activity()
		fmt.Printf("%-20s events=%-3d packets-at-buffer=%-3d payloads=%-3d cycles=%-5d link-flits=%d\n",
			mode, len(parsed), packets, payloads, cycles, a.LinkFlits)
	}
	fmt.Println("\n(gather delivers the same 64 payloads in 8 packets instead of 64,")
	fmt.Println(" with correspondingly fewer link traversals)")
}
