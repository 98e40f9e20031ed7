package topology

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMeshRejectsBadSizes(t *testing.T) {
	tests := []struct {
		rows, cols int
	}{
		{0, 4}, {4, 0}, {-1, 4}, {4, -1}, {0, 0},
	}
	for _, tt := range tests {
		if _, err := NewMesh(tt.rows, tt.cols); !errors.Is(err, ErrBadMeshSize) {
			t.Errorf("NewMesh(%d,%d) err = %v, want ErrBadMeshSize", tt.rows, tt.cols, err)
		}
	}
}

func TestMeshIDCoordRoundTrip(t *testing.T) {
	m := MustMesh(6, 6)
	for id := NodeID(0); int(id) < m.NumNodes(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Errorf("ID(Coord(%d)) = %d", id, got)
		}
	}
	if got := m.ID(Coord{Row: 2, Col: 3}); got != 15 {
		t.Errorf("ID((2,3)) = %d, want 15", got)
	}
}

func TestMeshNeighbor(t *testing.T) {
	m := MustMesh(3, 3)
	tests := []struct {
		id     NodeID
		port   Port
		want   NodeID
		wantOK bool
	}{
		{4, NorthPort, 1, true},
		{4, SouthPort, 7, true},
		{4, EastPort, 5, true},
		{4, WestPort, 3, true},
		{0, NorthPort, 0, false},
		{0, WestPort, 0, false},
		{8, SouthPort, 0, false},
		{8, EastPort, 0, false},
		{4, LocalPort, 0, false},
	}
	for _, tt := range tests {
		got, ok := m.Neighbor(tt.id, tt.port)
		if ok != tt.wantOK || (ok && got != tt.want) {
			t.Errorf("Neighbor(%d,%s) = (%d,%v), want (%d,%v)",
				tt.id, tt.port, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestPortOpposite(t *testing.T) {
	tests := []struct{ p, want Port }{
		{NorthPort, SouthPort},
		{SouthPort, NorthPort},
		{EastPort, WestPort},
		{WestPort, EastPort},
		{LocalPort, LocalPort},
	}
	for _, tt := range tests {
		if got := tt.p.Opposite(); got != tt.want {
			t.Errorf("%s.Opposite() = %s, want %s", tt.p, got, tt.want)
		}
	}
}

func TestXYRouteFirstCorrectsColumn(t *testing.T) {
	m := MustMesh(4, 4)
	// From (0,0) to (3,3): must go east until column matches, then south.
	if got := m.XYRoute(m.ID(Coord{0, 0}), m.ID(Coord{3, 3})); got != EastPort {
		t.Errorf("first hop = %s, want E", got)
	}
	if got := m.XYRoute(m.ID(Coord{0, 3}), m.ID(Coord{3, 3})); got != SouthPort {
		t.Errorf("aligned-column hop = %s, want S", got)
	}
	if got := m.XYRoute(5, 5); got != LocalPort {
		t.Errorf("self route = %s, want L", got)
	}
}

// Property: an XY route always terminates at the destination in exactly
// Manhattan-distance hops, and corrects X before Y.
func TestXYRouteReachesDestination(t *testing.T) {
	m := MustMesh(8, 8)
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % m.NumNodes())
		dst := NodeID(int(b) % m.NumNodes())
		path := []NodeID{src}
		for cur := src; cur != dst; {
			var ok bool
			if cur, ok = m.Neighbor(cur, m.XYRoute(cur, dst)); !ok {
				return false
			}
			path = append(path, cur)
		}
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		if len(path)-1 != m.Hops(src, dst) {
			return false
		}
		// X-first: once a vertical move happens, no horizontal move may follow.
		vertical := false
		for i := 1; i < len(path); i++ {
			pc, cc := m.Coord(path[i-1]), m.Coord(path[i])
			if pc.Row != cc.Row {
				vertical = true
			} else if vertical && pc.Col != cc.Col {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoutePathExample(t *testing.T) {
	// The Fig. 1(b) scenario: row 2 of a 6x6 mesh, node (2,0) to (2,5) is 5 hops.
	m := MustMesh(6, 6)
	src := m.ID(Coord{2, 0})
	dst := m.ID(Coord{2, 5})
	if got := m.Hops(src, dst); got != 5 {
		t.Errorf("Hops((2,0),(2,5)) = %d, want 5", got)
	}
	// Fig. 1(a): repetitive unicast from all 6 nodes of the row needs
	// 5+4+3+2+1+0 = 15 hops.
	total := 0
	for c := 0; c < 6; c++ {
		total += m.Hops(m.ID(Coord{2, c}), dst)
	}
	if total != 15 {
		t.Errorf("total unicast hops = %d, want 15", total)
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := MustMesh(5, 7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := NodeID(rng.Intn(m.NumNodes()))
		b := NodeID(rng.Intn(m.NumNodes()))
		if m.Hops(a, b) != m.Hops(b, a) {
			t.Fatalf("Hops(%d,%d) != Hops(%d,%d)", a, b, b, a)
		}
	}
}

func TestNonSquareMesh(t *testing.T) {
	m := MustMesh(2, 5)
	if m.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", m.NumNodes())
	}
	if got := m.Coord(7); got != (Coord{Row: 1, Col: 2}) {
		t.Errorf("Coord(7) = %v, want (1,2)", got)
	}
	if _, ok := m.Neighbor(m.ID(Coord{0, 4}), EastPort); ok {
		t.Error("east edge should have no east neighbor")
	}
}
