// Package analytic implements the paper's closed-form latency model: the
// collection terms of Eq. (2) (repetitive unicast) and Eq. (3) (gather),
// whose totals are the round latency times the round count, and Eq. (4)
// for the expected improvement, in which the round count cancels. With
// the congestion terms and tδ set to zero it reproduces the "Estimated"
// row of Table II (see DESIGN.md §4 for the calibration of κ, η and the
// packet lengths).
package analytic

// Params are the inputs to Eqs. (2)–(4).
type Params struct {
	// N and M are the mesh rows and columns.
	N int
	M int
	// Kappa is κ, the per-hop router pipeline latency in cycles.
	Kappa int
	// UnicastFlits is ⌈L/W⌉, the unicast packet length in flits.
	UnicastFlits int
	// GatherFlits is ⌈L'/W⌉, the gather packet length in flits.
	GatherFlits int
	// Eta is η, the payload capacity of one gather packet.
	Eta int
	// TMAC is the MAC time in cycles (Table I: 5).
	TMAC int
	// CRR is C·R·R, the per-round input/weight streaming time in cycles.
	CRR int
	// TDelta is tδ, the per-gather-packet delay waiting for payload
	// availability (0 in the ideal estimate).
	TDelta int
	// DeltaR and DeltaG are the congestion terms ΔR and ΔG (0 in the
	// ideal estimate).
	DeltaR int
	DeltaG int
}

// RUCollection returns the repetitive-unicast result-collection term of
// Eq. (2): M·(κ + ⌈L/W⌉) − 1 + ΔR, i.e. the header pipeline latency from
// the leftmost PE plus the serialized remaining flits of all M packets.
func (p Params) RUCollection() int {
	return p.M*(p.Kappa+p.UnicastFlits) - 1 + p.DeltaR
}

// GatherCollection returns the gather result-collection term of Eq. (3):
// the sum over the ⌈M/η⌉ gather packets of each packet's header transit
// (M − i·η hops), its remaining flits, and the tδ and ΔG penalties.
func (p Params) GatherCollection() int {
	eta := p.Eta
	if eta < 1 {
		eta = 1
	}
	packets := (p.M + eta - 1) / eta
	total := 0
	for i := 0; i < packets; i++ {
		total += (p.M-i*eta)*p.Kappa + p.GatherFlits - 1 + p.TDelta + p.DeltaG
	}
	return total
}

// GatherRound returns one round's latency under gather collection.
func (p Params) GatherRound() int {
	return p.CRR + p.TMAC + p.GatherCollection()
}

// Improvement returns Eq. (4) as a percentage: the collection-latency
// saving relative to the gather round latency. The round count cancels, so
// it is also the total-latency improvement.
func (p Params) Improvement() float64 {
	g := p.GatherRound()
	if g == 0 {
		return 0
	}
	return float64(p.RUCollection()-p.GatherCollection()) / float64(g) * 100
}
