// Package topology models the interconnect fabrics the accelerator can be
// built on and the routing algorithms that steer packets across them. The
// Topology interface abstracts node naming, port geometry and hop-count
// geometry (Mesh and Torus implement it); the Routing interface abstracts
// per-hop output-port selection and the virtual-channel classes deadlock
// freedom requires (dimension-order, west-first and odd-even implement
// it). XY-tree route computation for multicast (scatter) traffic works on
// every fabric. DESIGN.md §7 documents the interfaces and how to extend
// them.
//
// Rows grow downward and columns grow rightward, matching Fig. 1 and
// Fig. 2 of the paper: inputs enter on the west edge, weights on the north
// edge, and (on the mesh) the global buffer sits past the east edge of
// every row.
package topology

import (
	"errors"
	"fmt"
)

// NodeID identifies a router/PE position in row-major order.
type NodeID int

// Coord is a (row, column) mesh position.
type Coord struct {
	Row int
	Col int
}

// String renders the coordinate as "(r,c)".
func (c Coord) String() string {
	return fmt.Sprintf("(%d,%d)", c.Row, c.Col)
}

// Port names one of a router's five connections. LocalPort attaches the PE
// (through its network interface); the four cardinal ports attach
// neighboring routers.
type Port uint8

// Router port identifiers. LocalPort is deliberately the zero value: a
// freshly computed route that was never filled in would deliver locally and
// trip integrity checks immediately rather than wander.
const (
	LocalPort Port = iota
	NorthPort
	EastPort
	SouthPort
	WestPort

	// NumPorts is the number of ports on a mesh router.
	NumPorts = 5
)

// String returns the conventional single-letter port name.
func (p Port) String() string {
	switch p {
	case LocalPort:
		return "L"
	case NorthPort:
		return "N"
	case EastPort:
		return "E"
	case SouthPort:
		return "S"
	case WestPort:
		return "W"
	default:
		return fmt.Sprintf("Port(%d)", uint8(p))
	}
}

// Opposite returns the port a flit arrives on at the neighbor after leaving
// through p. Opposite of LocalPort is LocalPort.
func (p Port) Opposite() Port {
	switch p {
	case NorthPort:
		return SouthPort
	case SouthPort:
		return NorthPort
	case EastPort:
		return WestPort
	case WestPort:
		return EastPort
	default:
		return LocalPort
	}
}

// ErrBadMeshSize reports a non-positive mesh dimension.
var ErrBadMeshSize = errors.New("topology: mesh dimensions must be positive")

// Mesh is an immutable Rows×Cols 2-D mesh description. All methods are safe
// for concurrent use.
type Mesh struct {
	rows int
	cols int
}

// NewMesh returns a Rows×Cols mesh.
func NewMesh(rows, cols int) (*Mesh, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadMeshSize, rows, cols)
	}
	return &Mesh{rows: rows, cols: cols}, nil
}

// MustMesh is NewMesh for statically known-good dimensions; it panics on
// error and is intended for tests and package-level defaults.
func MustMesh(rows, cols int) *Mesh {
	m, err := NewMesh(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// Rows returns the number of mesh rows.
func (m *Mesh) Rows() int { return m.rows }

// Cols returns the number of mesh columns.
func (m *Mesh) Cols() int { return m.cols }

// NumNodes returns Rows*Cols.
func (m *Mesh) NumNodes() int { return m.rows * m.cols }

// ID converts a coordinate to its row-major NodeID. The coordinate must be
// in bounds; use InBounds to validate untrusted input.
func (m *Mesh) ID(c Coord) NodeID {
	return NodeID(c.Row*m.cols + c.Col)
}

// Coord converts a NodeID back to its mesh coordinate.
func (m *Mesh) Coord(id NodeID) Coord {
	return Coord{Row: int(id) / m.cols, Col: int(id) % m.cols}
}

// InBounds reports whether c lies on the mesh.
func (m *Mesh) InBounds(c Coord) bool {
	return c.Row >= 0 && c.Row < m.rows && c.Col >= 0 && c.Col < m.cols
}

// Neighbor returns the node adjacent to id through port p, and false when
// the port faces off the mesh edge (or is LocalPort).
func (m *Mesh) Neighbor(id NodeID, p Port) (NodeID, bool) {
	c := m.Coord(id)
	switch p {
	case NorthPort:
		c.Row--
	case SouthPort:
		c.Row++
	case EastPort:
		c.Col++
	case WestPort:
		c.Col--
	default:
		return 0, false
	}
	if !m.InBounds(c) {
		return 0, false
	}
	return m.ID(c), true
}

// Hops returns the Manhattan distance between two nodes, which is exactly
// the hop count of the XY route between them.
func (m *Mesh) Hops(a, b NodeID) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.Row-cb.Row) + abs(ca.Col-cb.Col)
}

// XYRoute returns the output port a packet at cur must take toward dst
// under dimension-order (X-first) routing: correct the column first, then
// the row. When cur == dst it returns LocalPort.
//
// XY routing on a mesh is deadlock-free because the port-to-port turn
// graph it induces is acyclic.
func (m *Mesh) XYRoute(cur, dst NodeID) Port {
	cc, cd := m.Coord(cur), m.Coord(dst)
	if cc == cd {
		return LocalPort
	}
	return xyStep(cc, cd)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
