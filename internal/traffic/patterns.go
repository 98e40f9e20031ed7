// Package traffic provides synthetic workload generators for the NoC
// (uniform random, transpose, bit-complement, hotspot, many-to-one) and a
// JSON trace format with record/replay support — the stand-in for the
// paper's PyTorch-generated convolution-layer traces. The accumulation-phase
// workload (AccumulationController) sequences its rounds with the shared
// round loop (internal/round, DESIGN.md §8), runs alone under workload.Run or
// as a scheduled phase, and releases its operands through the network's one
// sender side (noc.Network.Submit); the Replayer alone calls
// the NIC's gather entry points itself, because it replays recorded events
// rather than deciding who initiates.
package traffic

import (
	"fmt"
	"math/rand"

	"gathernoc/internal/topology"
)

// Pattern maps a source node to a destination for one injected packet.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Destination picks the target for a packet injected at src. It must
	// not return src itself (the generator retries or skips such picks).
	Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID
}

// UniformRandom sends every packet to a uniformly random other node.
type UniformRandom struct {
	// Nodes is the mesh node count.
	Nodes int
}

// Name implements Pattern.
func (UniformRandom) Name() string { return "uniform" }

// Destination implements Pattern.
func (u UniformRandom) Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	if u.Nodes < 2 {
		return src
	}
	for {
		d := topology.NodeID(rng.Intn(u.Nodes))
		if d != src {
			return d
		}
	}
}

// Transpose sends (r,c) to (c,r); nodes on the diagonal send uniformly.
type Transpose struct {
	// Mesh supplies the coordinate mapping (any grid topology works).
	Mesh topology.Topology
}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Destination implements Pattern.
func (t Transpose) Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	c := t.Mesh.Coord(src)
	if c.Row == c.Col || t.Mesh.Rows() != t.Mesh.Cols() {
		return UniformRandom{Nodes: t.Mesh.NumNodes()}.Destination(src, rng)
	}
	return t.Mesh.ID(topology.Coord{Row: c.Col, Col: c.Row})
}

// BitComplement sends node i to node (N-1-i).
type BitComplement struct {
	// Nodes is the mesh node count.
	Nodes int
}

// Name implements Pattern.
func (BitComplement) Name() string { return "bitcomplement" }

// Destination implements Pattern.
func (b BitComplement) Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	d := topology.NodeID(b.Nodes - 1 - int(src))
	if d == src {
		return UniformRandom{Nodes: b.Nodes}.Destination(src, rng)
	}
	return d
}

// Hotspot sends a fraction of traffic to a fixed hot node and the rest
// uniformly — the many-to-one stress the gather mechanism targets.
type Hotspot struct {
	// Nodes is the mesh node count; Target the hot node.
	Nodes  int
	Target topology.NodeID
	// Fraction in [0,1] is the share of packets aimed at Target.
	Fraction float64
}

// Name implements Pattern.
func (Hotspot) Name() string { return "hotspot" }

// Destination implements Pattern.
func (h Hotspot) Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	if src != h.Target && rng.Float64() < h.Fraction {
		return h.Target
	}
	return UniformRandom{Nodes: h.Nodes}.Destination(src, rng)
}

// PatternByName constructs a pattern for a grid topology by CLI name.
func PatternByName(name string, mesh topology.Topology) (Pattern, error) {
	switch name {
	case "uniform":
		return UniformRandom{Nodes: mesh.NumNodes()}, nil
	case "transpose":
		return Transpose{Mesh: mesh}, nil
	case "bitcomplement":
		return BitComplement{Nodes: mesh.NumNodes()}, nil
	case "hotspot":
		return Hotspot{Nodes: mesh.NumNodes(), Target: 0, Fraction: 0.2}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}
