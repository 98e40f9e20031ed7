package collective

import (
	"fmt"

	"gathernoc/internal/fault"
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
	// Rows[r] collects row r at its east-column PE.
	Rows []noc.LineCollect
	// Column collects the east column's row sums at the root.
	Column noc.LineCollect
	// Root is the final reduction point: Column.Target.
	Root topology.NodeID
	// RootIsSink reports whether the root is a global-buffer sink (mesh
	// Reduce) rather than a PE; a sink cannot re-inject, so plans for ops
	// with a broadcast leg must keep the root on a PE.
	RootIsSink bool
	// Live[id] reports whether node id participates (nil: every node). A
	// plan is only constructed when every live node's sweep path to the
	// root is fully alive, so dead nodes never sit on a live node's route.
	Live []bool
	// LiveCount is the number of participating nodes.
	LiveCount int
}

// PlanOptions parameterizes tree-plan construction.
type PlanOptions struct {
	// Dead marks nodes (by id) whose PE and router are out of service;
	// nil or all-false plans the full fabric. A live node whose sweep
	// path to the root crosses a dead node makes the plan infeasible
	// (fault.ErrUnreachable): the tree's routes are deterministic, so
	// there is nothing to reroute around.
	Dead []bool
	// RootAtSink collects the column stage at the bottom row's
	// global-buffer sink instead of the bottom-right PE — the natural
	// root for a pure Reduce on a fabric with east sinks. Requires
	// noc.Config.EastSinks.
	RootAtSink bool
}

// NewTreePlan builds the two-level reduction tree for the network's
// topology and routing, honoring the dead-node mask: the returned plan
// covers every live node exactly once, or construction fails with an
// error wrapping fault.ErrUnreachable naming the first node whose
// deterministic path to the root crosses a dead node.
func NewTreePlan(nw *noc.Network, opts PlanOptions) (*TreePlan, error) {
	cfg := nw.Config()
	topo := nw.Topology()
	nodes := topo.NumNodes()
	if opts.Dead != nil && len(opts.Dead) != nodes {
		return nil, fmt.Errorf("collective: Dead mask has %d entries for %d nodes", len(opts.Dead), nodes)
	}
	if opts.RootAtSink && !cfg.EastSinks {
		return nil, fmt.Errorf("collective: RootAtSink needs noc.Config.EastSinks (topology %q has none)",
			cfg.EffectiveTopology())
	}

	p := &TreePlan{Rows: make([]noc.LineCollect, cfg.Rows)}
	for row := 0; row < cfg.Rows; row++ {
		p.Rows[row] = nw.RowLine(row, false)
	}
	p.Column = nw.ColumnLine(cfg.Cols-1, opts.RootAtSink)
	p.Root = p.Column.Target
	p.RootIsSink = p.Column.TargetIsSink

	p.LiveCount = nodes
	if opts.Dead != nil {
		p.Live = make([]bool, nodes)
		p.LiveCount = 0
		for id := range p.Live {
			if !opts.Dead[id] {
				p.Live[id] = true
				p.LiveCount++
			}
		}
		if err := p.checkReachable(topo); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Alive reports whether node id participates in the plan.
func (p *TreePlan) Alive(id topology.NodeID) bool {
	return p.Live == nil || p.Live[id]
}

// checkReachable walks every live node's deterministic sweep path — its
// row arc to the east-column PE, then the east column's arc to the root —
// and fails on the first dead router en route. The column segment starts
// at the live node's own row even when its row line is otherwise empty:
// the row target relays through the same column arc regardless.
func (p *TreePlan) checkReachable(topo topology.Topology) error {
	var buf []int
	for id := 0; id < topo.NumNodes(); id++ {
		node := topology.NodeID(id)
		if !p.Live[node] {
			continue
		}
		c := topo.Coord(node)
		rowLine := &p.Rows[c.Row]
		buf = rowLine.SweepPath(c.Col, buf[:0])
		for _, idx := range buf {
			if hop := rowLine.Nodes[idx]; !p.Live[hop] {
				return fmt.Errorf("collective: node %d: row sweep crosses dead node %d: %w",
					node, hop, fault.ErrUnreachable)
			}
		}
		buf = p.Column.SweepPath(c.Row, buf[:0])
		for _, idx := range buf {
			if hop := p.Column.Nodes[idx]; !p.Live[hop] {
				return fmt.Errorf("collective: node %d: column sweep crosses dead node %d: %w",
					node, hop, fault.ErrUnreachable)
			}
		}
	}
	return nil
}

// Dests returns the broadcast destination set: every live node, the root
// included (the multicast tree delivers the root's copy through its own
// local port, so receipt accounting is uniform across all nodes).
func (p *TreePlan) Dests(topo topology.Topology) *topology.DestSet {
	n := topo.NumNodes()
	s := topology.NewDestSet(n)
	for id := 0; id < n; id++ {
		if p.Alive(topology.NodeID(id)) {
			s.Add(topology.NodeID(id))
		}
	}
	return s
}
