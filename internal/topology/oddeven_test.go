package topology

import "testing"

// TestOddEvenMinimalAndNonEmpty checks the two liveness properties of the
// routing function: at every (src, cur, dst) with cur on a minimal
// quadrant, the port set is non-empty and every port strictly reduces the
// Manhattan distance.
func TestOddEvenMinimalAndNonEmpty(t *testing.T) {
	m := MustMesh(5, 6)
	oddEven, _ := NewRouting("oddeven", m)
	for src := 0; src < m.NumNodes(); src++ {
		for dst := 0; dst < m.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			// Walk every reachable state by BFS over returned ports.
			seen := map[NodeID]bool{}
			frontier := []NodeID{NodeID(src)}
			for len(frontier) > 0 {
				cur := frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				if cur == NodeID(dst) || seen[cur] {
					continue
				}
				seen[cur] = true
				ports := oddEven.AppendPorts(nil, NodeID(src), cur, NodeID(dst))
				if len(ports) == 0 {
					t.Fatalf("empty port set at %v, src %v dst %v",
						m.Coord(cur), m.Coord(NodeID(src)), m.Coord(NodeID(dst)))
				}
				before := m.Hops(cur, NodeID(dst))
				for _, p := range ports {
					next, ok := m.Neighbor(cur, p)
					if !ok {
						t.Fatalf("port %s off the mesh at %v", p, m.Coord(cur))
					}
					if m.Hops(next, NodeID(dst)) != before-1 {
						t.Fatalf("non-minimal port %s at %v toward %v", p, m.Coord(cur), m.Coord(NodeID(dst)))
					}
					frontier = append(frontier, next)
				}
			}
		}
	}
}

// TestOddEvenTurnRules verifies Chiu's two turn prohibitions across every
// reachable (arrival direction, departure direction) pair: no east-to-
// north or east-to-south turn at even columns, no north-to-west or
// south-to-west turn at odd columns.
func TestOddEvenTurnRules(t *testing.T) {
	m := MustMesh(6, 6)
	oddEven, _ := NewRouting("oddeven", m)
	for src := 0; src < m.NumNodes(); src++ {
		for dst := 0; dst < m.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			// State: (cur, inPort). BFS across all adaptive choices.
			type state struct {
				cur NodeID
				in  Port // port the packet arrived on (LocalPort at src)
			}
			seen := map[state]bool{}
			frontier := []state{{NodeID(src), LocalPort}}
			for len(frontier) > 0 {
				s := frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				if s.cur == NodeID(dst) || seen[s] {
					continue
				}
				seen[s] = true
				col := m.Coord(s.cur).Col
				for _, out := range oddEven.AppendPorts(nil, NodeID(src), s.cur, NodeID(dst)) {
					// Arrival on the west port means the packet was
					// traveling east; arrival on north/south means it was
					// traveling south/north.
					travelingEast := s.in == WestPort
					travelingVert := s.in == NorthPort || s.in == SouthPort
					if travelingEast && (out == NorthPort || out == SouthPort) && col%2 == 0 {
						t.Fatalf("EN/ES turn at even column %d (src %v dst %v)",
							col, m.Coord(NodeID(src)), m.Coord(NodeID(dst)))
					}
					if travelingVert && out == WestPort && col%2 == 1 {
						t.Fatalf("NW/SW turn at odd column %d (src %v dst %v)",
							col, m.Coord(NodeID(src)), m.Coord(NodeID(dst)))
					}
					next, _ := m.Neighbor(s.cur, out)
					frontier = append(frontier, state{next, out.Opposite()})
				}
			}
		}
	}
}

func TestOddEvenSameColumnGoesStraight(t *testing.T) {
	m := MustMesh(4, 4)
	oddEven, _ := NewRouting("oddeven", m)
	src := m.ID(Coord{Row: 0, Col: 2})
	dst := m.ID(Coord{Row: 3, Col: 2})
	ports := oddEven.AppendPorts(nil, src, src, dst)
	if len(ports) != 1 || ports[0] != SouthPort {
		t.Errorf("same-column ports = %v, want [S]", ports)
	}
	if got := oddEven.AppendPorts(nil, src, dst, dst); len(got) != 0 {
		t.Errorf("arrived ports = %v, want empty", got)
	}
}
