package topology

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDestSetBasics(t *testing.T) {
	s := NewDestSet(128)
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(127)
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if got := s.String(); got != "{0,63,64,127}" {
		t.Errorf("set = %s, want {0,63,64,127}", got)
	}
	// Duplicate add is idempotent.
	s.Add(0)
	if s.Len() != 4 {
		t.Errorf("Len after duplicate add = %d, want 4", s.Len())
	}
}

func TestDestSetOutOfRangeIgnored(t *testing.T) {
	s := NewDestSet(10)
	s.Add(-1)
	s.Add(1000)
	if s.Len() != 0 {
		t.Error("out-of-range adds changed the set")
	}
}

func TestDestSetNodesSorted(t *testing.T) {
	s := DestSetOf(64, 9, 3, 41, 0)
	got := s.Nodes()
	want := []NodeID{0, 3, 9, 41}
	if len(got) != len(want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
}

func TestDestSetClone(t *testing.T) {
	s := DestSetOf(64, 5)
	c := s.Clone()
	c.Add(6)
	if s.Len() != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestDestSetString(t *testing.T) {
	if got := DestSetOf(64, 2, 10).String(); got != "{2,10}" {
		t.Errorf("String() = %q, want {2,10}", got)
	}
	if got := NewDestSet(8).String(); got != "{}" {
		t.Errorf("empty String() = %q, want {}", got)
	}
}

// Property: every destination in a multicast set appears in exactly one
// branch (or locally), so the XY multicast forms a tree with no duplicate
// delivery and no loss.
func TestMulticastRoutePartitions(t *testing.T) {
	m := MustMesh(8, 8)
	f := func(curRaw uint8, seed int64) bool {
		cur := NodeID(int(curRaw) % m.NumNodes())
		rng := rand.New(rand.NewSource(seed))
		dsts := NewDestSet(m.NumNodes())
		for i := 0; i < 10; i++ {
			dsts.Add(NodeID(rng.Intn(m.NumNodes())))
		}
		branches, local := MulticastRoute(m, cur, dsts)

		seen := map[NodeID]bool{}
		count := 0
		for _, br := range branches {
			if br.Out == LocalPort {
				return false // local deliveries must use the flag, not a branch
			}
			for _, d := range br.Dsts.Nodes() {
				if seen[d] {
					return false // duplicate across branches
				}
				seen[d] = true
				count++
				// Branch port must match this destination's XY route.
				if m.XYRoute(cur, d) != br.Out {
					return false
				}
			}
		}
		if local {
			if !slices.Contains(dsts.Nodes(), cur) {
				return false
			}
			count++
		}
		return count == dsts.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: following the multicast tree recursively delivers to every
// destination exactly once.
func TestMulticastTreeDeliversAll(t *testing.T) {
	m := MustMesh(6, 6)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		src := NodeID(rng.Intn(m.NumNodes()))
		dsts := NewDestSet(m.NumNodes())
		for i := 0; i < 1+rng.Intn(12); i++ {
			dsts.Add(NodeID(rng.Intn(m.NumNodes())))
		}
		delivered := make(map[NodeID]int)
		linkUses := 0

		var walk func(cur NodeID, set *DestSet)
		walk = func(cur NodeID, set *DestSet) {
			branches, local := MulticastRoute(m, cur, set)
			if local {
				delivered[cur]++
			}
			for _, br := range branches {
				next, ok := m.Neighbor(cur, br.Out)
				if !ok {
					t.Fatalf("branch through edge at node %d port %s", cur, br.Out)
				}
				linkUses++
				walk(next, br.Dsts)
			}
		}
		walk(src, dsts)

		for _, d := range dsts.Nodes() {
			if delivered[d] != 1 {
				t.Fatalf("dst %d delivered %d times", d, delivered[d])
			}
		}
		if len(delivered) != dsts.Len() {
			t.Fatalf("delivered to %d nodes, want %d", len(delivered), dsts.Len())
		}
		// Tree property: link uses can't exceed sum of individual route hops.
		sumHops := 0
		for _, d := range dsts.Nodes() {
			sumHops += m.Hops(src, d)
		}
		if linkUses > sumHops {
			t.Fatalf("tree used %d links, unicast union would use %d", linkUses, sumHops)
		}
	}
}
