package collective

import (
	"testing"

	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// FuzzTreePlan throws random fabrics and routings at the tree-plan builder.
// The invariant: the plan's row lines cover every node exactly once, its
// column line threads the row targets in order, its δ scales are all
// positive and its broadcast reaches every node. Plan construction must
// never panic.
func FuzzTreePlan(f *testing.F) {
	f.Add(uint8(8), uint8(8), false, uint8(0))
	f.Add(uint8(8), uint8(8), true, uint8(0))
	f.Add(uint8(4), uint8(4), false, uint8(1))
	f.Add(uint8(6), uint8(3), true, uint8(2))
	f.Add(uint8(1), uint8(1), false, uint8(0))
	f.Fuzz(func(t *testing.T, rows, cols uint8, torus bool, routing uint8) {
		r := 1 + int(rows)%8
		c := 1 + int(cols)%8
		var cfg noc.Config
		if torus {
			cfg = noc.DefaultTorusConfig(r, c)
		} else {
			cfg = noc.DefaultConfig(r, c)
		}
		names := topology.RoutingNames()
		cfg.Routing = names[int(routing)%len(names)]
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzz harness built an invalid config: %v", err)
		}
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatalf("noc.New: %v", err)
		}
		defer nw.Close()

		plan, err := NewTreePlan(nw, PlanOptions{RootAtSink: cfg.EastSinks})
		if err != nil {
			t.Fatalf("NewTreePlan: %v", err)
		}
		nodes := r * c
		covered := make(map[topology.NodeID]int)
		for row, line := range plan.Rows {
			if len(line.Nodes) != c || len(line.DeltaScale) != c {
				t.Fatalf("row %d line sized %d/%d, want %d", row, len(line.Nodes), len(line.DeltaScale), c)
			}
			for i, id := range line.Nodes {
				covered[id]++
				if line.DeltaScale[i] < 1 {
					t.Fatalf("row %d node %d δ scale %d", row, id, line.DeltaScale[i])
				}
			}
			if plan.Column.Nodes[row] != line.Target {
				t.Fatalf("column node %d is %d, want row target %d", row, plan.Column.Nodes[row], line.Target)
			}
		}
		if len(covered) != nodes {
			t.Fatalf("row lines cover %d nodes, want %d", len(covered), nodes)
		}
		for id, n := range covered {
			if n != 1 {
				t.Fatalf("node %d covered %d times", id, n)
			}
		}
		if plan.Dests(nw.Topology()).Len() != nodes {
			t.Fatalf("broadcast dest set covers %d nodes, want %d", plan.Dests(nw.Topology()).Len(), nodes)
		}
	})
}
