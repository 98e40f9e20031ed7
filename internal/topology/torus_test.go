package topology

import (
	"errors"
	"testing"
)

func TestNewTorusRejectsBadSizes(t *testing.T) {
	for _, tt := range []struct{ rows, cols int }{{0, 4}, {4, 0}, {-1, 4}, {4, -1}} {
		if _, err := NewTorus(tt.rows, tt.cols); !errors.Is(err, ErrBadMeshSize) {
			t.Errorf("NewTorus(%d,%d) err = %v, want ErrBadMeshSize", tt.rows, tt.cols, err)
		}
	}
}

func TestTorusNeighborWrapsEveryEdge(t *testing.T) {
	tor, _ := NewTorus(4, 6)
	// Interior moves match the mesh.
	mid := tor.ID(Coord{Row: 1, Col: 2})
	if nb, ok := tor.Neighbor(mid, EastPort); !ok || tor.Coord(nb) != (Coord{Row: 1, Col: 3}) {
		t.Errorf("interior east neighbor = %v,%v", nb, ok)
	}
	// Edge moves wrap around.
	cases := []struct {
		at   Coord
		p    Port
		want Coord
	}{
		{Coord{Row: 0, Col: 0}, NorthPort, Coord{Row: 3, Col: 0}},
		{Coord{Row: 3, Col: 2}, SouthPort, Coord{Row: 0, Col: 2}},
		{Coord{Row: 1, Col: 5}, EastPort, Coord{Row: 1, Col: 0}},
		{Coord{Row: 2, Col: 0}, WestPort, Coord{Row: 2, Col: 5}},
	}
	for _, c := range cases {
		nb, ok := tor.Neighbor(tor.ID(c.at), c.p)
		if !ok || tor.Coord(nb) != c.want {
			t.Errorf("Neighbor(%v, %s) = %v,%v, want %v", c.at, c.p, tor.Coord(nb), ok, c.want)
		}
	}
	if _, ok := tor.Neighbor(mid, LocalPort); ok {
		t.Error("LocalPort must not have a neighbor")
	}
}

func TestTorusHopsUsesShorterWay(t *testing.T) {
	tor, _ := NewTorus(8, 8)
	a := tor.ID(Coord{Row: 0, Col: 0})
	b := tor.ID(Coord{Row: 0, Col: 7})
	if got := tor.Hops(a, b); got != 1 {
		t.Errorf("wraparound hops = %d, want 1", got)
	}
	c := tor.ID(Coord{Row: 7, Col: 7})
	if got := tor.Hops(a, c); got != 2 {
		t.Errorf("corner-to-corner hops = %d, want 2", got)
	}
	d := tor.ID(Coord{Row: 4, Col: 4})
	if got := tor.Hops(a, d); got != 8 {
		t.Errorf("antipode hops = %d, want 8", got)
	}
	// Never worse than the mesh distance.
	m := MustMesh(8, 8)
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			if tor.Hops(NodeID(x), NodeID(y)) > m.Hops(NodeID(x), NodeID(y)) {
				t.Fatalf("torus hops %d->%d exceed mesh hops", x, y)
			}
		}
	}
}

// walkRoute follows a deterministic routing function on topo from src to dst and
// returns the hop count, failing the test on non-minimal steps or cycles.
func walkRoute(t *testing.T, topo Topology, r Routing, src, dst NodeID) int {
	t.Helper()
	cur := src
	hops := 0
	var buf [4]Port
	for cur != dst {
		ports := r.AppendPorts(buf[:0], src, cur, dst)
		if len(ports) == 0 {
			t.Fatalf("%s: empty port set at %v toward %v", r.Name(), topo.Coord(cur), topo.Coord(dst))
		}
		before := topo.Hops(cur, dst)
		next, ok := topo.Neighbor(cur, ports[0])
		if !ok {
			t.Fatalf("%s: port %s leads off the fabric at %v", r.Name(), ports[0], topo.Coord(cur))
		}
		if topo.Hops(next, dst) >= before {
			t.Fatalf("%s: non-minimal step %v->%v toward %v", r.Name(), topo.Coord(cur), topo.Coord(next), topo.Coord(dst))
		}
		cur = next
		if hops++; hops > topo.NumNodes() {
			t.Fatalf("%s: route %v->%v does not converge", r.Name(), src, dst)
		}
	}
	return hops
}

func TestTorusDORIsMinimalEverywhere(t *testing.T) {
	tor, _ := NewTorus(5, 6)
	r, err := NewRouting("xy", tor)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < tor.NumNodes(); src++ {
		for dst := 0; dst < tor.NumNodes(); dst++ {
			got := walkRoute(t, tor, r, NodeID(src), NodeID(dst))
			if want := tor.Hops(NodeID(src), NodeID(dst)); got != want {
				t.Fatalf("route %d->%d took %d hops, want %d", src, dst, got, want)
			}
		}
	}
}

// TestTorusDatelineClassMonotonic checks the deadlock-avoidance invariant
// behind the dateline scheme: along any DOR route, within one dimension
// the VC class never drops from 1 back to 0, and class 1 is entered at or
// before the wraparound link. A class that could oscillate would re-create
// the ring cycle the dateline exists to break.
func TestTorusDatelineClassMonotonic(t *testing.T) {
	tor, _ := NewTorus(6, 7)
	r, err := NewRouting("xy", tor)
	if err != nil {
		t.Fatal(err)
	}
	if r.VCClasses() != 2 {
		t.Fatalf("torus DOR VCClasses = %d, want 2", r.VCClasses())
	}
	var buf [4]Port
	for src := 0; src < tor.NumNodes(); src++ {
		for dst := 0; dst < tor.NumNodes(); dst++ {
			cur := NodeID(src)
			lastClass := -1
			lastDim := -1
			for cur != NodeID(dst) {
				out := r.AppendPorts(buf[:0], NodeID(src), cur, NodeID(dst))[0]
				class := r.VCClass(cur, NodeID(dst), out)
				if class < 0 || class >= r.VCClasses() {
					t.Fatalf("class %d out of range", class)
				}
				dim := 0
				if out == NorthPort || out == SouthPort {
					dim = 1
				}
				if dim == lastDim && class < lastClass {
					t.Fatalf("route %d->%d: class dropped %d->%d within dimension %d at %v",
						src, dst, lastClass, class, dim, tor.Coord(cur))
				}
				// Wraparound links must ride the high class: the dateline
				// crossing itself is the class switch.
				cc := tor.Coord(cur)
				wrap := (out == EastPort && cc.Col == tor.Cols()-1) ||
					(out == WestPort && cc.Col == 0) ||
					(out == SouthPort && cc.Row == tor.Rows()-1) ||
					(out == NorthPort && cc.Row == 0)
				if wrap && class != 1 {
					t.Fatalf("route %d->%d: wraparound hop at %v in class %d, want 1", src, dst, cc, class)
				}
				lastClass, lastDim = class, dim
				cur, _ = tor.Neighbor(cur, out)
			}
		}
	}
}

func TestMeshRoutingsSingleClass(t *testing.T) {
	m := MustMesh(4, 4)
	for _, name := range RoutingNames() {
		r, err := NewRouting(name, m)
		if err != nil {
			t.Fatal(err)
		}
		if r.VCClasses() != 1 {
			t.Errorf("%s on mesh: VCClasses = %d, want 1", name, r.VCClasses())
		}
		if got := r.VCClass(0, 5, EastPort); got != 0 {
			t.Errorf("%s on mesh: VCClass = %d, want 0", name, got)
		}
	}
}

func TestNewRoutingRejectsUnknown(t *testing.T) {
	if _, err := NewRouting("zigzag", MustMesh(2, 2)); err == nil {
		t.Error("unknown routing accepted")
	}
	if _, err := NewRouting("xy", nil); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestNewTopologyByName(t *testing.T) {
	for _, name := range TopologyNames() {
		topo, err := New(name, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if topo.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, topo.Name())
		}
		if topo.NumNodes() != 12 {
			t.Errorf("New(%q).NumNodes() = %d", name, topo.NumNodes())
		}
	}
	if topo, err := New("", 2, 2); err != nil || topo.Name() != "mesh" {
		t.Errorf("empty name: %v, %v", topo, err)
	}
	if _, err := New("hypercube", 2, 2); err == nil {
		t.Error("unknown topology accepted")
	}
}

// TestAdaptiveRoutingsAvoidWrapLinks pins the safe-sub-network rule: on a
// torus the turn-model routings never return a port whose hop would cross
// a wraparound link, which is what keeps their mesh deadlock proofs valid.
func TestAdaptiveRoutingsAvoidWrapLinks(t *testing.T) {
	tor, _ := NewTorus(4, 5)
	for _, name := range []string{"westfirst", "oddeven"} {
		r, err := NewRouting(name, tor)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Adaptive() {
			t.Errorf("%s: Adaptive() = false", name)
		}
		var buf [4]Port
		for src := 0; src < tor.NumNodes(); src++ {
			for dst := 0; dst < tor.NumNodes(); dst++ {
				for cur := 0; cur < tor.NumNodes(); cur++ {
					cc := tor.Coord(NodeID(cur))
					for _, p := range r.AppendPorts(buf[:0], NodeID(src), NodeID(cur), NodeID(dst)) {
						wrap := (p == EastPort && cc.Col == tor.Cols()-1) ||
							(p == WestPort && cc.Col == 0) ||
							(p == SouthPort && cc.Row == tor.Rows()-1) ||
							(p == NorthPort && cc.Row == 0)
						if wrap {
							t.Fatalf("%s: wrap hop %v via %s toward %v", name, cc, p, tor.Coord(NodeID(dst)))
						}
					}
				}
			}
		}
	}
}
