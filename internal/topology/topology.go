package topology

import "fmt"

// Topology abstracts the interconnect fabric's shape: node naming on a
// rows×cols coordinate grid, the link structure (which ports lead where),
// and hop-count geometry. Mesh and Torus implement it; the network, router,
// traffic and analytic layers consume only this interface, so new fabrics
// plug in without touching them (see DESIGN.md §7 for the extension guide).
//
// All implementations must be immutable after construction and safe for
// concurrent use.
type Topology interface {
	// Name identifies the topology in configs and reports ("mesh",
	// "torus").
	Name() string
	// Rows and Cols give the coordinate grid dimensions.
	Rows() int
	Cols() int
	// NumNodes returns Rows*Cols.
	NumNodes() int
	// ID converts an in-bounds coordinate to its row-major NodeID.
	ID(c Coord) NodeID
	// Coord converts a NodeID back to its grid coordinate.
	Coord(id NodeID) Coord
	// Neighbor returns the node adjacent to id through port p, and false
	// when no link exists there (mesh edge, or LocalPort). On a torus every
	// cardinal port is connected: edge ports wrap around.
	Neighbor(id NodeID, p Port) (NodeID, bool)
	// Hops returns the minimal hop count between two nodes.
	Hops(a, b NodeID) int
}

// TopologyNames lists the built-in topology constructors accepted by New.
func TopologyNames() []string { return []string{"mesh", "torus"} }

// New constructs a built-in topology by name. The empty name selects the
// mesh, the paper's fabric.
func New(name string, rows, cols int) (Topology, error) {
	switch name {
	case "", "mesh":
		return NewMesh(rows, cols)
	case "torus":
		return NewTorus(rows, cols)
	default:
		return nil, fmt.Errorf("topology: unknown topology %q (mesh, torus)", name)
	}
}
