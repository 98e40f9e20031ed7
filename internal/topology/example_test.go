package topology_test

import (
	"fmt"

	"gathernoc/internal/topology"
)

// XY dimension-order routing corrects the column before the row.
func ExampleMesh_XYRoute() {
	m := topology.MustMesh(4, 4)
	src := m.ID(topology.Coord{Row: 0, Col: 0})
	dst := m.ID(topology.Coord{Row: 2, Col: 3})
	for n := src; ; {
		fmt.Print(m.Coord(n), " ")
		if n == dst {
			break
		}
		n, _ = m.Neighbor(n, m.XYRoute(n, dst))
	}
	fmt.Println()
	// Output:
	// (0,0) (0,1) (0,2) (0,3) (1,3) (2,3)
}

// A torus wraps every edge, so dimension-order routing takes the shorter
// way around each ring and the worst-case hop count halves relative to
// the mesh.
func ExampleTorus() {
	tor, _ := topology.NewTorus(8, 8)
	m := topology.MustMesh(8, 8)
	a := tor.ID(topology.Coord{Row: 0, Col: 0})
	b := tor.ID(topology.Coord{Row: 7, Col: 7})
	fmt.Println("mesh hops: ", m.Hops(a, b))
	fmt.Println("torus hops:", tor.Hops(a, b))
	// Output:
	// mesh hops:  14
	// torus hops: 2
}

// NewRouting builds the configured algorithm for any topology; on the
// torus, dimension-order routing exploits the wraparound links and uses
// two dateline VC classes for deadlock freedom.
func ExampleNewRouting() {
	tor, _ := topology.NewTorus(4, 4)
	r, _ := topology.NewRouting("xy", tor)
	src := tor.ID(topology.Coord{Row: 0, Col: 0})
	dst := tor.ID(topology.Coord{Row: 0, Col: 3})
	ports := r.AppendPorts(nil, src, src, dst)
	fmt.Printf("%s on %s: port %s, class %d of %d\n",
		r.Name(), tor.Name(), ports[0],
		r.VCClass(src, dst, ports[0]), r.VCClasses())
	// Output:
	// xy on torus: port W, class 1 of 2
}

// A DestSet is the bit-string multicast destination encoding carried in a
// header flit.
func ExampleDestSet() {
	s := topology.NewDestSet(16)
	s.Add(3)
	s.Add(12)
	s.Add(3) // idempotent
	fmt.Println(s, "len", s.Len())
	// Output:
	// {3,12} len 2
}

// An XY multicast partitions its destination set into tree branches, each
// destination reached exactly once.
func ExampleMulticastRoute() {
	m := topology.MustMesh(4, 4)
	dsts := topology.DestSetOf(m.NumNodes(),
		m.ID(topology.Coord{Row: 0, Col: 3}),
		m.ID(topology.Coord{Row: 2, Col: 0}),
		m.ID(topology.Coord{Row: 3, Col: 1}),
	)
	branches, local := topology.MulticastRoute(m, m.ID(topology.Coord{Row: 1, Col: 1}), dsts)
	fmt.Println("deliver locally:", local)
	for _, br := range branches {
		fmt.Printf("port %s -> %s\n", br.Out, br.Dsts)
	}
	// Output:
	// deliver locally: false
	// port E -> {3}
	// port S -> {13}
	// port W -> {8}
}
