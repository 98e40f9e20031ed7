package topology

import "fmt"

// Torus is an immutable Rows×Cols 2-D torus: the mesh grid with wraparound
// links closing every row and column into a ring. Hop counts use the
// shorter way around each ring, so the worst-case distance halves relative
// to the mesh — the property that lets collective-capable NoCs scale to
// larger accelerator arrays.
//
// The wraparound links reintroduce cyclic channel dependencies that the
// mesh's turn models cannot break; deadlock-free routing on the torus
// therefore pairs dimension-order routing with dateline virtual-channel
// classes (see Routing and DESIGN.md §7).
type Torus struct {
	grid *Mesh
}

// NewTorus returns a Rows×Cols torus.
func NewTorus(rows, cols int) (*Torus, error) {
	m, err := NewMesh(rows, cols)
	if err != nil {
		return nil, err
	}
	return &Torus{grid: m}, nil
}

// Name implements Topology.
func (t *Torus) Name() string { return "torus" }

// Rows returns the number of torus rows.
func (t *Torus) Rows() int { return t.grid.Rows() }

// Cols returns the number of torus columns.
func (t *Torus) Cols() int { return t.grid.Cols() }

// NumNodes returns Rows*Cols.
func (t *Torus) NumNodes() int { return t.grid.NumNodes() }

// ID converts a coordinate to its row-major NodeID.
func (t *Torus) ID(c Coord) NodeID { return t.grid.ID(c) }

// Coord converts a NodeID back to its grid coordinate.
func (t *Torus) Coord(id NodeID) Coord { return t.grid.Coord(id) }

// Neighbor returns the node adjacent to id through port p. Unlike the
// mesh, every cardinal port is connected: ports facing off the grid edge
// wrap around to the opposite edge. Only LocalPort (and invalid ports)
// report false.
func (t *Torus) Neighbor(id NodeID, p Port) (NodeID, bool) {
	c := t.grid.Coord(id)
	switch p {
	case NorthPort:
		c.Row = mod(c.Row-1, t.Rows())
	case SouthPort:
		c.Row = mod(c.Row+1, t.Rows())
	case EastPort:
		c.Col = mod(c.Col+1, t.Cols())
	case WestPort:
		c.Col = mod(c.Col-1, t.Cols())
	default:
		return 0, false
	}
	return t.grid.ID(c), true
}

// Hops returns the minimal hop count between two nodes: per dimension the
// shorter way around the ring.
func (t *Torus) Hops(a, b NodeID) int {
	ca, cb := t.grid.Coord(a), t.grid.Coord(b)
	return ringDist(ca.Row, cb.Row, t.Rows()) + ringDist(ca.Col, cb.Col, t.Cols())
}

// String renders the torus dimensions.
func (t *Torus) String() string {
	return fmt.Sprintf("torus %dx%d", t.Rows(), t.Cols())
}

// ringDist is the minimal distance between positions a and b on a ring of
// the given size.
func ringDist(a, b, size int) int {
	d := abs(a - b)
	if w := size - d; w < d {
		return w
	}
	return d
}

// mod is the positive remainder of v modulo size (size > 0).
func mod(v, size int) int {
	v %= size
	if v < 0 {
		v += size
	}
	return v
}
