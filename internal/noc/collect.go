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

// RowLines returns the plans of every row, RowLine's, indexed by row. The
// network builds them once and hands every caller the same plans: they are
// read-only, and a caller that wants other δ scales gives its copy of a
// plan a DeltaScale of its own.
func (nw *Network) RowLines(toSink bool) []LineCollect { return nw.lineSet(false, toSink) }

// RowLine plans the collection of one row at its east-column PE, or — when
// toSink is set on a fabric with east sinks — at the row's global-buffer
// sink (the paper's row collection). The PE target can re-inject the row's
// sum into a second-level reduction (the collective tree's row stage).
// toSink without east sinks panics, as for ColumnLine. The plan's slices
// are the network's own (RowLines): read-only.
func (nw *Network) RowLine(row int, toSink bool) LineCollect {
	return nw.RowLines(toSink)[row]
}

// ColumnLine plans the collection of one column at its bottom-row PE, or —
// when toSink is set on a fabric with east sinks — at the bottom row's
// global-buffer sink, whose deterministic route extends the southward
// sweep with the final east hop off the edge (the collective tree's column
// stage). toSink without east sinks panics: Validate already rejects the
// torus/EastSinks combination, so the caller gates on the config. Like
// RowLine's, the plan is built once per network and read-only.
func (nw *Network) ColumnLine(col int, toSink bool) LineCollect {
	return nw.lineSet(true, toSink)[col]
}

// lineSet returns the plans of every row, or with column of every column,
// building them on first use: they depend only on the topology and the
// routing, which never change, so every controller a pooled fabric runs
// shares them.
func (nw *Network) lineSet(column, toSink bool) []LineCollect {
	plans := &nw.lines[b2i(column)][b2i(toSink)]
	if *plans == nil {
		*plans = nw.buildLines(column, toSink)
	}
	return *plans
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// buildLines plans every row, or with column every column, in sweep order
// (west to east, north to south); the target is each line's last node, or
// with toSink the sink of that node's row. The plans' slices are cut,
// capacity and all, from one array per kind.
func (nw *Network) buildLines(column, toSink bool) []LineCollect {
	if toSink && len(nw.sinks) == 0 {
		panic("noc: line collection toSink without east sinks")
	}
	count, n := nw.cfg.Rows, nw.cfg.Cols
	if column {
		count, n = n, count
	}
	plans := make([]LineCollect, count)
	nodes := make([]topology.NodeID, count*n)
	scales := make([]int, count*n)
	inits := make([]topology.NodeID, 0, 2*count)
	for l := range plans {
		lc := &plans[l]
		lc.Nodes = nodes[l*n : (l+1)*n : (l+1)*n]
		lc.DeltaScale = scales[l*n : (l+1)*n : (l+1)*n]
		for i := range lc.Nodes {
			at := topology.Coord{Row: l, Col: i}
			if column {
				at = topology.Coord{Row: i, Col: l}
			}
			lc.Nodes[i] = nw.topo.ID(at)
		}
		lc.Target, lc.TargetIsSink = lc.Nodes[n-1], toSink
		if toSink {
			lc.Target = nw.RowSinkID(nw.topo.Coord(lc.Target).Row)
		}
		idx, k := nw.linePlan(lc.DeltaScale, n > 1 || toSink)
		if k > 0 {
			from := len(inits)
			for _, i := range idx[:k] {
				inits = append(inits, lc.Nodes[i])
			}
			lc.Initiators = inits[from:len(inits):len(inits)]
		}
	}
	return plans
}

// linePlan fills in the δ scales of a line of len(scale) nodes whose target
// sits at its last index and returns the k initiator indices in inits —
// the index-space core shared by RowLine and ColumnLine. meshInitiator
// controls whether the mesh path names index 0 as initiator (false only
// for a single-node line collecting at itself, where there is nothing to
// sweep).
func (nw *Network) linePlan(scale []int, meshInitiator bool) (inits [2]int, k int) {
	n := len(scale)
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
			inits[k], k = fwd, k+1
		}
		if bwd != t && bwd != fwd {
			inits[k], k = bwd, k+1
		}
		for i := 0; i < n; i++ {
			if d := pmod(t-i, n); d <= n-d {
				// Swept by the forward packet.
				scale[i] = 1 + pmod(i-fwd, n)
			} else {
				scale[i] = 1 + pmod(bwd-i, n)
			}
		}
		return inits, k
	}

	// Mesh-path routing (mesh fabrics, and turn-model routings confined
	// to a torus's mesh sub-network): the index-0 initiator's route to
	// the line-end target is the straight sweep under every built-in
	// algorithm — same-row and same-column destinations leave no
	// adaptivity.
	if meshInitiator {
		k = 1
	}
	for i := 0; i < n; i++ {
		scale[i] = 1 + i
	}
	return inits, k
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
