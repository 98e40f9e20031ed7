package core_test

import (
	"fmt"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
)

// A complete layer comparison in one call: repetitive unicast vs gather on
// the Table I 8x8 mesh. Improvements are deterministic; the exact latency
// golden values live in the root package's TestGoldenDeterminism.
func ExampleCompareLayer() {
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv2")
	cmp, err := core.CompareLayer(8, 8, layer, core.Options{Rounds: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("estimated: %.2f%%\n", cmp.EstimatedImprovementPct)
	fmt.Printf("simulated: %.2f%%\n", cmp.LatencyImprovementPct)
	fmt.Println("gather wins:", cmp.Gather.Result.MeasuredCycles < cmp.RU.Result.MeasuredCycles)
	// Output:
	// estimated: 0.73%
	// simulated: 1.16%
	// gather wins: true
}
