package noc

import (
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// LineCollect is the network's plan for collecting the payloads of one
// straight line of fabric nodes at a target past the line's last index —
// the generalization of the paper's "leftmost PE launches a packet that
// merges while flowing east" to columns and to fabrics without an east
// edge. Rows sweeping east and columns sweeping south use the same shape,
// and every workload layer (the systolic result collection, gather and INA
// accumulation, the collective tree's two stages) consumes only this plan
// and Submit, so none carries topology or routing assumptions of its own:
//
//   - On a mesh the single initiator is the index-0 PE, whose deterministic
//     route to the target sweeps the entire line — the paper's
//     configuration when the line is a row and the target its east sink.
//   - On a torus under wrap-aware dimension-order routing, minimal routes
//     span at most half a ring, so no single packet can sweep the line;
//     the plan instead names two initiators — the farthest node of each
//     ring direction — whose routes to the target jointly cover every PE.
//
// DeltaScale preserves the δ-timeout discipline across all of this: a
// node's timeout is scaled with its hop distance from the initiator that
// sweeps past it, so a packet already in flight is not preempted by a
// spurious self-initiation (DESIGN.md §3 and §7).
type LineCollect struct {
	// Nodes lists the line's members in sweep-index order (west to east
	// for a row, north to south for a column).
	Nodes []topology.NodeID
	// Target receives the line's payloads: Nodes[len-1] itself, or the
	// global-buffer sink past it (the row's sink for a row, the bottom row's
	// for the east column).
	Target topology.NodeID
	// TargetIsSink distinguishes the two target kinds.
	TargetIsSink bool
	// Initiators lists the nodes that launch the line's collective
	// packet(s); one on mesh paths, up to two covering a torus ring.
	Initiators []topology.NodeID
	// DeltaScale[i] is the δ multiplier for Nodes[i]: 1 + its hop distance
	// from the initiator whose packet sweeps it.
	DeltaScale []int
}

// IsInitiator reports whether id launches one of the line's collective
// packets.
func (lc *LineCollect) IsInitiator(id topology.NodeID) bool {
	for _, init := range lc.Initiators {
		if init == id {
			return true
		}
	}
	return false
}

// RowLine plans the collection of one row at its east-column PE, or — when
// toSink is set on a fabric with east sinks — at the row's global-buffer
// sink (the paper's row collection). The PE target can re-inject the row's
// sum into a second-level reduction (the collective tree's row stage).
// toSink without east sinks panics, as for ColumnLine.
func (nw *Network) RowLine(row int, toSink bool) LineCollect {
	cols := nw.cfg.Cols
	nodes := make([]topology.NodeID, cols)
	for col := 0; col < cols; col++ {
		nodes[col] = nw.topo.ID(topology.Coord{Row: row, Col: col})
	}
	return nw.lineCollect(nodes, row, toSink)
}

// ColumnLine plans the collection of one column at its bottom-row PE, or —
// when toSink is set on a fabric with east sinks — at the bottom row's
// global-buffer sink, whose deterministic route extends the southward
// sweep with the final east hop off the edge (the collective tree's column
// stage). toSink without east sinks panics: Validate already rejects the
// torus/EastSinks combination, so the caller gates on the config.
func (nw *Network) ColumnLine(col int, toSink bool) LineCollect {
	rows := nw.cfg.Rows
	nodes := make([]topology.NodeID, rows)
	for row := 0; row < rows; row++ {
		nodes[row] = nw.topo.ID(topology.Coord{Row: row, Col: col})
	}
	return nw.lineCollect(nodes, rows-1, toSink)
}

// lineCollect assembles a LineCollect from the index-space plan; the target
// is the line's last node, or with toSink the sink of sinkRow.
func (nw *Network) lineCollect(nodes []topology.NodeID, sinkRow int, toSink bool) LineCollect {
	n := len(nodes)
	lc := LineCollect{
		Nodes:        nodes,
		Target:       nodes[n-1],
		TargetIsSink: toSink,
	}
	if toSink {
		if len(nw.sinks) == 0 {
			panic("noc: line collection toSink without east sinks")
		}
		lc.Target = nw.RowSinkID(sinkRow)
	}
	inits, scale := nw.linePlan(n, n > 1 || toSink)
	for _, idx := range inits {
		lc.Initiators = append(lc.Initiators, nodes[idx])
	}
	lc.DeltaScale = scale
	return lc
}

// linePlan computes the initiator indices and δ scales for a line of n
// nodes whose target sits at index n-1 — the index-space core shared by
// RowLine and ColumnLine. meshInitiator controls whether the
// mesh path names index 0 as initiator (false only for a single-node line
// collecting at itself, where there is nothing to sweep).
func (nw *Network) linePlan(n int, meshInitiator bool) (inits []int, scale []int) {
	scale = make([]int, n)
	if nw.routing.VCClasses() > 1 {
		// Wrap-aware routing (torus dimension-order with dateline VC
		// classes): cover the ring with two initiators, the farthest node
		// of each direction. ringStep ties break forward (east/south), so
		// the forward arc may span ⌊n/2⌋ hops and the backward arc the
		// remaining ⌈n/2⌉-1.
		t := n - 1
		fwd := pmod(t-n/2, n)
		bwd := pmod(t+(n+1)/2-1, n)
		if fwd != t {
			inits = append(inits, fwd)
		}
		if bwd != t && bwd != fwd {
			inits = append(inits, bwd)
		}
		for i := 0; i < n; i++ {
			if d := pmod(t-i, n); d <= n-d {
				// Swept by the forward packet.
				scale[i] = 1 + pmod(i-fwd, n)
			} else {
				scale[i] = 1 + pmod(bwd-i, n)
			}
		}
		return inits, scale
	}

	// Mesh-path routing (mesh fabrics, and turn-model routings confined
	// to a torus's mesh sub-network): the index-0 initiator's route to
	// the line-end target is the straight sweep under every built-in
	// algorithm — same-row and same-column destinations leave no
	// adaptivity.
	if meshInitiator {
		inits = append(inits, 0)
	}
	for i := 0; i < n; i++ {
		scale[i] = 1 + i
	}
	return inits, scale
}

// pmod is the positive remainder of v modulo size (size > 0).
func pmod(v, size int) int {
	v %= size
	if v < 0 {
		v += size
	}
	return v
}

// CollectScheme selects the transport that carries a line's payloads to
// its target.
type CollectScheme uint8

// Collection schemes.
const (
	// CollectUnicast sends every payload as its own unicast packet; the
	// target performs any reduction.
	CollectUnicast CollectScheme = iota + 1
	// CollectGather packs the line's payloads into gather packets; every
	// payload still travels the full path.
	CollectGather
	// CollectINA reduces the payloads inside the routers: one
	// constant-length accumulate packet arrives carrying the line's sum.
	CollectINA
)

// String names the scheme.
func (s CollectScheme) String() string {
	switch s {
	case CollectUnicast:
		return "unicast"
	case CollectGather:
		return "gather"
	case CollectINA:
		return "ina"
	default:
		return fmt.Sprintf("CollectScheme(%d)", uint8(s))
	}
}

// station returns the station kind that takes up the payloads of a
// collective scheme: gather payloads are uploaded, INA operands merged.
func (s CollectScheme) station() reduce.Kind {
	switch s {
	case CollectGather:
		return reduce.GatherStation
	case CollectINA:
		return reduce.ReduceStation
	}
	panic(fmt.Sprintf("noc: Submit with collection scheme %d", s))
}

// Submit is the sender side of Algorithm 1, the one place a payload enters
// a line collection: it releases p from line member i under the given
// scheme and passes the workload tag to the NIC call that does it. Under
// CollectUnicast every member sends its own packet. Otherwise an initiator
// launches the line's collective packet (gather or accumulate) seeded with
// p, and every other member offers p to its router's station of the
// scheme's kind and falls back to a packet of its own after δ·DeltaScale[i]
// (a passing packet picks the payload up first, or the timeout
// self-initiates). δ is sticky per-NIC state, so it is armed here, on the
// submit that reads it: drivers sharing a NIC under different plans cannot
// leak a timeout into one another (DESIGN.md §8).
func (nw *Network) Submit(lc *LineCollect, i int, scheme CollectScheme, tag flit.Tag, p flit.Payload) {
	node := lc.Nodes[i]
	n := nw.nics[node]
	switch {
	case scheme == CollectUnicast:
		n.SendUnicastPayload(tag, lc.Target, p)
	case lc.IsInitiator(node):
		n.Initiate(scheme.station(), tag, lc.Target, p)
	default:
		n.SetDelta(nw.nicCfg.Delta * int64(lc.DeltaScale[i]))
		n.SubmitPayload(scheme.station(), tag, p)
	}
}

// CollectHops returns the hop count a payload from node id pays to reach
// the line's collection target (the sink link included when the target is a
// sink) — the per-operand wire cost the merge-savings accounting charges
// against repetitive unicast. The distance follows the configured
// routing's effective fabric: turn-model routings on a torus never take
// wrap links, so their packets pay mesh-grid distances even though the
// topology's minimal distance is shorter.
func (nw *Network) CollectHops(id topology.NodeID, lc *LineCollect) int {
	edge := lc.Nodes[len(lc.Nodes)-1]
	extra := 0
	if lc.TargetIsSink {
		extra = 1
	}
	if nw.routing.VCClasses() > 1 {
		// Wrap-aware routing: the topology's minimal distance is achieved.
		return nw.topo.Hops(id, edge) + extra
	}
	ca, cb := nw.topo.Coord(id), nw.topo.Coord(edge)
	return iabs(ca.Row-cb.Row) + iabs(ca.Col-cb.Col) + extra
}

// iabs is the integer absolute value.
func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
