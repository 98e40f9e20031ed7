package topology

import "fmt"

// Routing computes, for a single-destination packet, the productive output
// ports at each hop and the virtual-channel class the hop must use. It is
// the pluggable half of the Topology/Routing pair: the router pipeline
// calls it through the network layer and needs no knowledge of which
// algorithm or fabric is configured.
//
// A routing function is deterministic when AppendPorts always returns one
// port and adaptive when it may return several (the router then picks the
// alternative with the most downstream credit). Every implementation must
// be minimal (each returned port reduces the distance to dst), livelock-
// free, and deadlock-free on its topology — the deadlock argument per
// algorithm is documented in DESIGN.md §7.
type Routing interface {
	// Name identifies the algorithm in configs and reports ("xy",
	// "westfirst", "oddeven").
	Name() string
	// Adaptive reports whether AppendPorts may return more than one port.
	Adaptive() bool
	// AppendPorts appends the productive output ports a packet injected at
	// src, currently at cur, may take toward dst, and returns the extended
	// slice. The result is empty only when cur == dst. Appending into a
	// caller-owned scratch buffer keeps route computation allocation-free
	// on the hot path.
	AppendPorts(ports []Port, src, cur, dst NodeID) []Port
	// VCClasses returns how many dateline virtual-channel classes the
	// algorithm needs for deadlock freedom: 1 on fabrics whose channel
	// dependencies are already acyclic (mesh turn models), 2 when ring
	// cycles must be broken by a dateline (torus dimension-order routing).
	// Downstream VC allocation partitions the physical VCs evenly across
	// the classes, so the router VC count must be >= VCClasses.
	VCClasses() int
	// VCClass returns the dateline class, in [0, VCClasses()), that the
	// hop leaving cur through out toward dst must allocate its downstream
	// VC from. Single-class routings always return 0.
	VCClass(cur, dst NodeID, out Port) int
}

// RoutingNames lists the built-in routing algorithms accepted by
// NewRouting.
func RoutingNames() []string { return []string{"xy", "westfirst", "oddeven"} }

// NewRouting constructs a built-in routing algorithm by name for the given
// topology. The empty name selects "xy", deterministic dimension-order
// routing — the paper's setting on the mesh, and on the torus the
// wrap-aware minimal variant with dateline VC classes.
//
// The adaptive turn-model algorithms ("westfirst", "oddeven") are proven
// deadlock-free on the mesh's acyclic channel graph only; on a torus they
// route over the mesh sub-network (wraparound links stay unused), which
// preserves the proof at the cost of mesh-length paths. Only "xy" exploits
// the torus wraparound links.
func NewRouting(name string, t Topology) (Routing, error) {
	if t == nil {
		return nil, fmt.Errorf("topology: NewRouting needs a topology")
	}
	switch name {
	case "", "xy":
		if _, ok := t.(*Torus); ok {
			return torusDOR{t: t}, nil
		}
		return xyRouting{t: t}, nil
	case "westfirst":
		return westFirstRouting{t: t}, nil
	case "oddeven":
		return oddEvenRouting{t: t}, nil
	default:
		return nil, fmt.Errorf("topology: unknown routing %q (xy, westfirst, oddeven)", name)
	}
}

// xyRouting is deterministic dimension-order routing on the mesh grid:
// correct the column first, then the row. Deadlock-free because the turn
// graph it induces is acyclic.
type xyRouting struct{ t Topology }

func (r xyRouting) Name() string   { return "xy" }
func (r xyRouting) Adaptive() bool { return false }
func (r xyRouting) VCClasses() int { return 1 }

func (r xyRouting) VCClass(cur, dst NodeID, out Port) int { return 0 }

func (r xyRouting) AppendPorts(ports []Port, src, cur, dst NodeID) []Port {
	if cur == dst {
		return ports
	}
	return append(ports, xyStep(r.t.Coord(cur), r.t.Coord(dst)))
}

// xyStep is the mesh dimension-order step from cc toward cd (cc != cd).
func xyStep(cc, cd Coord) Port {
	switch {
	case cd.Col > cc.Col:
		return EastPort
	case cd.Col < cc.Col:
		return WestPort
	case cd.Row > cc.Row:
		return SouthPort
	default:
		return NorthPort
	}
}

// westFirstRouting adapts the west-first turn model (Glass & Ni) to the
// Routing interface. On a torus it routes over the mesh sub-network, which
// keeps the turn-model deadlock proof intact (see NewRouting).
type westFirstRouting struct{ t Topology }

func (r westFirstRouting) Name() string   { return "westfirst" }
func (r westFirstRouting) Adaptive() bool { return true }
func (r westFirstRouting) VCClasses() int { return 1 }

func (r westFirstRouting) VCClass(cur, dst NodeID, out Port) int { return 0 }

func (r westFirstRouting) AppendPorts(ports []Port, src, cur, dst NodeID) []Port {
	return appendWestFirst(ports, r.t.Coord(cur), r.t.Coord(dst))
}

// appendWestFirst appends the productive output ports a packet at cc may
// take toward cd under the west-first turn model (Glass & Ni): any turn
// into the west direction is forbidden, so westward correction must happen
// first, after which the packet may route adaptively among the remaining
// productive directions. It appends nothing only when cc == cd.
//
// West-first routing is deadlock-free on a mesh: prohibiting the two turns
// into west breaks every cycle in the turn graph. It is also minimal and
// livelock-free: every returned port strictly reduces the Manhattan
// distance to cd.
func appendWestFirst(ports []Port, cc, cd Coord) []Port {
	if cc == cd {
		return ports
	}
	// Westward travel cannot be entered by turning, so while the
	// destination lies west the only legal move is west.
	if cd.Col < cc.Col {
		return append(ports, WestPort)
	}
	if cd.Col > cc.Col {
		ports = append(ports, EastPort)
	}
	if cd.Row > cc.Row {
		ports = append(ports, SouthPort)
	}
	if cd.Row < cc.Row {
		ports = append(ports, NorthPort)
	}
	return ports
}

// oddEvenRouting adapts the odd-even turn model (Chiu) to the Routing
// interface. On a torus it routes over the mesh sub-network, which keeps
// the turn-model deadlock proof intact (see NewRouting).
type oddEvenRouting struct{ t Topology }

func (r oddEvenRouting) Name() string   { return "oddeven" }
func (r oddEvenRouting) Adaptive() bool { return true }
func (r oddEvenRouting) VCClasses() int { return 1 }

func (r oddEvenRouting) VCClass(cur, dst NodeID, out Port) int { return 0 }

func (r oddEvenRouting) AppendPorts(ports []Port, src, cur, dst NodeID) []Port {
	return appendOddEven(ports, r.t.Coord(src), r.t.Coord(cur), r.t.Coord(dst))
}

// torusDOR is wrap-aware minimal dimension-order routing on the torus:
// per dimension the shorter way around the ring (ties break east/south),
// column before row. Ring cycles are broken by two dateline VC classes —
// see VCClass.
type torusDOR struct{ t Topology }

func (r torusDOR) Name() string   { return "xy" }
func (r torusDOR) Adaptive() bool { return false }
func (r torusDOR) VCClasses() int { return 2 }

func (r torusDOR) AppendPorts(ports []Port, src, cur, dst NodeID) []Port {
	if cur == dst {
		return ports
	}
	cc, cd := r.t.Coord(cur), r.t.Coord(dst)
	if cc.Col != cd.Col {
		return append(ports, ringStep(cc.Col, cd.Col, r.t.Cols(), EastPort, WestPort))
	}
	return append(ports, ringStep(cc.Row, cd.Row, r.t.Rows(), SouthPort, NorthPort))
}

// ringStep picks the minimal direction from position a to b on a ring of
// the given size: fwd is the increasing direction (east/south) and wins
// ties, matching the deterministic tie-break the collect-path planning
// relies on.
func ringStep(a, b, size int, fwd, bwd Port) Port {
	d := mod(b-a, size)
	if d <= size-d {
		return fwd
	}
	return bwd
}

// VCClass implements the dateline scheme that makes torus dimension-order
// routing deadlock-free. Each ring has one dateline, placed on its
// wraparound link (between positions size-1 and 0). A hop's class is 0
// while the packet's remaining path in that direction still has the
// dateline ahead of it, and 1 from the dateline crossing onward (packets
// that never cross also ride class 1 — harmless, since class-1
// dependencies end strictly before re-entering the wraparound link).
// Within each class the directed channel dependency graph of the ring is
// acyclic, and dimension-order traversal rules out cross-dimension
// cycles; DESIGN.md §7 gives the full argument.
//
// The class is a pure function of the current position, destination and
// direction — no per-packet state — because minimal routing crosses a
// dateline at most once.
func (r torusDOR) VCClass(cur, dst NodeID, out Port) int {
	cc, cd := r.t.Coord(cur), r.t.Coord(dst)
	switch out {
	case EastPort:
		if cc.Col == r.t.Cols()-1 || cd.Col > cc.Col {
			return 1
		}
	case WestPort:
		if cc.Col == 0 || cd.Col < cc.Col {
			return 1
		}
	case SouthPort:
		if cc.Row == r.t.Rows()-1 || cd.Row > cc.Row {
			return 1
		}
	case NorthPort:
		if cc.Row == 0 || cd.Row < cc.Row {
			return 1
		}
	}
	return 0
}
