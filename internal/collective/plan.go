package collective

import (
	"fmt"

	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// TreePlan is the two-level reduction tree over a fabric: one LineCollect
// per row collecting at the row's east-column PE, and one LineCollect over
// the east column collecting the row sums at the tree root. The reverse
// tree (broadcast) needs no plan of its own — one multicast packet from
// the root covers every destination over the XY multicast tree.
//
// Every PE belongs to exactly one row line, so the tree covers the fabric
// exactly once; the east-column PEs additionally relay their row sums into
// the column stage. Plans are wrap-aware: with wrap-aware routing each
// line is a ring covered by two directional arcs (see noc.LineCollect).
type TreePlan struct {
	// Rows[r] collects row r at its east-column PE. Rows and Column are the
	// network's plans (noc.Network.RowLines), shared and read-only.
	Rows []noc.LineCollect
	// Column collects the east column's row sums at the root.
	Column noc.LineCollect
	// Root is the final reduction point: Column.Target.
	Root topology.NodeID
	// RootIsSink reports whether the root is a global-buffer sink (mesh
	// Reduce) rather than a PE; a sink cannot re-inject, so plans for ops
	// with a broadcast leg must keep the root on a PE.
	RootIsSink bool
}

// PlanOptions parameterizes tree-plan construction.
type PlanOptions struct {
	// RootAtSink collects the column stage at the bottom row's
	// global-buffer sink instead of the bottom-right PE — the natural
	// root for a pure Reduce on a fabric with east sinks. Requires
	// noc.Config.EastSinks.
	RootAtSink bool
}

// NewTreePlan builds the two-level reduction tree for the network's
// topology and routing; the returned plan covers every node exactly once.
func NewTreePlan(nw *noc.Network, opts PlanOptions) (*TreePlan, error) {
	cfg := nw.Config()
	if opts.RootAtSink && !cfg.EastSinks {
		return nil, fmt.Errorf("collective: RootAtSink needs noc.Config.EastSinks (topology %q has none)",
			cfg.EffectiveTopology())
	}

	p := &TreePlan{Rows: nw.RowLines(false)}
	p.Column = nw.ColumnLine(cfg.Cols-1, opts.RootAtSink)
	p.Root = p.Column.Target
	p.RootIsSink = p.Column.TargetIsSink
	return p, nil
}

// Dests returns the broadcast destination set: every node, the root
// included (the multicast tree delivers the root's copy through its own
// local port, so receipt accounting is uniform across all nodes).
func (p *TreePlan) Dests(topo topology.Topology) *topology.DestSet {
	n := topo.NumNodes()
	s := topology.NewDestSet(n)
	for id := 0; id < n; id++ {
		s.Add(topology.NodeID(id))
	}
	return s
}
