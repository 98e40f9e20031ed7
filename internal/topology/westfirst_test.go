package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWestFirstPortsSelf(t *testing.T) {
	m := MustMesh(4, 4)
	westFirst, _ := NewRouting("westfirst", m)
	if got := westFirst.AppendPorts(nil, 5, 5, 5); got != nil {
		t.Errorf("self route = %v, want nil", got)
	}
}

func TestWestFirstWestIsExclusive(t *testing.T) {
	m := MustMesh(4, 4)
	westFirst, _ := NewRouting("westfirst", m)
	// Destination west and south: only west is legal (turning into west
	// later would be a prohibited turn).
	src := m.ID(Coord{Row: 0, Col: 3})
	dst := m.ID(Coord{Row: 3, Col: 0})
	got := westFirst.AppendPorts(nil, src, src, dst)
	if len(got) != 1 || got[0] != WestPort {
		t.Errorf("ports = %v, want [W]", got)
	}
}

func TestWestFirstAdaptiveEastQuadrant(t *testing.T) {
	m := MustMesh(4, 4)
	westFirst, _ := NewRouting("westfirst", m)
	// Destination east and south: both productive ports are legal.
	got := westFirst.AppendPorts(nil, m.ID(Coord{0, 0}), m.ID(Coord{0, 0}), m.ID(Coord{3, 3}))
	if len(got) != 2 {
		t.Fatalf("ports = %v, want 2 alternatives", got)
	}
	seen := map[Port]bool{}
	for _, p := range got {
		seen[p] = true
	}
	if !seen[EastPort] || !seen[SouthPort] {
		t.Errorf("ports = %v, want {E,S}", got)
	}
}

// Property: west-first ports are always productive (each strictly reduces
// Manhattan distance), never turn into west from a non-west heading, and
// any greedy walk over them reaches the destination in exactly
// Manhattan-distance hops.
func TestWestFirstDeliversMinimally(t *testing.T) {
	m := MustMesh(8, 8)
	westFirst, _ := NewRouting("westfirst", m)
	f := func(a, b uint8, seed int64) bool {
		src := NodeID(int(a) % m.NumNodes())
		dst := NodeID(int(b) % m.NumNodes())
		rng := rand.New(rand.NewSource(seed))
		cur := src
		steps := 0
		for cur != dst {
			ports := westFirst.AppendPorts(nil, cur, cur, dst)
			if len(ports) == 0 {
				return false
			}
			p := ports[rng.Intn(len(ports))]
			next, ok := m.Neighbor(cur, p)
			if !ok {
				return false
			}
			if m.Hops(next, dst) != m.Hops(cur, dst)-1 {
				return false // non-productive hop
			}
			cur = next
			steps++
			if steps > m.Hops(src, dst) {
				return false
			}
		}
		return steps == m.Hops(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: west moves only happen while the destination is strictly west,
// i.e. the turn model holds along any walk.
func TestWestFirstTurnModel(t *testing.T) {
	m := MustMesh(8, 8)
	westFirst, _ := NewRouting("westfirst", m)
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % m.NumNodes())
		dst := NodeID(int(b) % m.NumNodes())
		cur := src
		for cur != dst {
			ports := westFirst.AppendPorts(nil, cur, cur, dst)
			if len(ports) == 0 {
				return false
			}
			hasWest := false
			for _, p := range ports {
				if p == WestPort {
					hasWest = true
				}
			}
			if hasWest && len(ports) != 1 {
				return false // west must be exclusive when offered
			}
			next, _ := m.Neighbor(cur, ports[0])
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
