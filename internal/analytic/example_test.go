package analytic_test

import (
	"fmt"

	"gathernoc/internal/analytic"
)

// The paper's Table II "Estimated" entry for AlexNet Conv2 on the 8x8
// mesh: Eq. (4) with the calibrated constants.
func ExampleParams_Improvement() {
	p := analytic.Params{
		N: 8, M: 8, // mesh
		Kappa:        4,          // per-hop header latency
		UnicastFlits: 2,          // Table I
		GatherFlits:  4,          // Table I
		Eta:          8,          // one gather packet per row
		TMAC:         5,          // Table I
		CRR:          64 * 5 * 5, // Conv2: C·R·R
	}
	fmt.Printf("RU collection:     %d cycles\n", p.RUCollection())
	fmt.Printf("gather collection: %d cycles\n", p.GatherCollection())
	fmt.Printf("improvement:       %.2f%%\n", p.Improvement())
	// Output:
	// RU collection:     47 cycles
	// gather collection: 35 cycles
	// improvement:       0.73%
}

// One round's wire traffic, the quantitative Fig. 1 argument.
func ExampleTraffic() {
	t := analytic.Traffic{N: 8, M: 8, UnicastFlits: 2, GatherFlits: 4}
	ru, g := t.RULinkFlits(), t.GatherLinkFlits()
	fmt.Printf("RU:     %d flit-link traversals\n", ru)
	fmt.Printf("gather: %d flit-link traversals\n", g)
	fmt.Printf("saving: %.0f%%\n", float64(ru-g)/float64(ru)*100)
	// Output:
	// RU:     704 flit-link traversals
	// gather: 288 flit-link traversals
	// saving: 59%
}
