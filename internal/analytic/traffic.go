package analytic

// Traffic predicts the exact wire activity of one result-collection round
// on an N×M mesh with east-edge global-buffer sinks: how many flits cross
// links and how many router buffer writes occur under each collection
// scheme. The simulator's activity counters match these closed forms
// exactly on uncongested runs (see the cross-validation tests), which
// pins the Fig. 1 resource-saving argument quantitatively.
type Traffic struct {
	// N and M are the mesh rows and columns.
	N int
	M int
	// UnicastFlits and GatherFlits are the packet lengths ⌈L/W⌉ and
	// ⌈L'/W⌉.
	UnicastFlits int
	GatherFlits  int
}

// RULinkFlits returns the flit-link traversals of one repetitive-unicast
// round: the PE at column c sends L flits across one injection link,
// M−1−c inter-router links and one sink link.
func (t Traffic) RULinkFlits() int {
	perRow := 0
	for c := 0; c < t.M; c++ {
		perRow += t.UnicastFlits * (t.M - c + 1)
	}
	return t.N * perRow
}

// GatherLinkFlits returns the flit-link traversals of one gather round:
// one L'-flit packet per row crossing injection, M−1 inter-router links
// and the sink link.
func (t Traffic) GatherLinkFlits() int {
	return t.N * t.GatherFlits * (t.M + 1)
}

// RUBufferWrites returns the router buffer writes of one RU round: the
// packet from column c visits M−c routers.
func (t Traffic) RUBufferWrites() int {
	perRow := 0
	for c := 0; c < t.M; c++ {
		perRow += t.UnicastFlits * (t.M - c)
	}
	return t.N * perRow
}

// GatherBufferWrites returns the router buffer writes of one gather round:
// the row packet visits all M routers.
func (t Traffic) GatherBufferWrites() int {
	return t.N * t.GatherFlits * t.M
}
