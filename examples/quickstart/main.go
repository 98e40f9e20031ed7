// Quickstart: run one AlexNet convolution layer on an 8x8 mesh NoC in both
// collection modes — the paper's repetitive-unicast baseline and its gather
// packets — and print the latency/energy comparison over the whole layer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
)

func main() {
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	if !ok {
		log.Fatal("AlexNet Conv1 missing")
	}

	cmp, err := core.CompareLayer(8, 8, layer, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("layer                 %s\n", layer)
	fmt.Printf("rounds                %d\n", cmp.RU.Result.TotalRounds)
	fmt.Printf("RU total latency      %d cycles\n", cmp.RU.Result.MeasuredCycles)
	fmt.Printf("gather total latency  %d cycles\n", cmp.Gather.Result.MeasuredCycles)
	fmt.Printf("latency improvement   %.2f%% (paper's Eq. 4 estimate: %.2f%%)\n",
		cmp.LatencyImprovementPct, cmp.EstimatedImprovementPct)
	fmt.Printf("RU NoC energy         %.0f pJ\n", cmp.RU.Energy.NoCPJ)
	fmt.Printf("gather NoC energy     %.0f pJ\n", cmp.Gather.Energy.NoCPJ)
	fmt.Printf("power improvement     %.2f%%\n", cmp.PowerImprovementPct)
	fmt.Printf("payloads piggybacked  %d (self-initiated: %d)\n",
		cmp.Gather.Result.PiggybackAcks, cmp.Gather.Result.SelfInitiatedGathers)
}
