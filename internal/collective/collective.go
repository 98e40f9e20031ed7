// Package collective composes the row-collection machinery into
// mesh-wide collective operations: Reduce (every PE's operand folded into
// one value), Broadcast (one value delivered to every PE) and AllReduce
// (reduce then broadcast, every PE ending with the global sum).
//
// The reduction is a two-level tree built from noc.LineCollect plans
// (DESIGN.md §13): each row first collects at its east-column PE exactly
// like the paper's row gather — initiators, payload stations and δ-scaled
// timeouts all reused, through the same noc.Network.Submit the row
// workloads call — and the east column then collects those row sums
// vertically at the tree root: the bottom-right PE, or, for a pure Reduce
// on a fabric with east sinks, the bottom row's global-buffer sink. The
// broadcast leg is the reverse tree, one multicast packet fanning the
// value out over the XY multicast tree (PT=M, topology.MulticastRoute).
// Plans are wrap-aware: on a torus each line is covered by two directional
// arcs (noc.LineCollect).
//
// Three algorithms transport the same semantics:
//
//   - AlgTree moves operands in gather packets at both tree levels and
//     broadcasts with one multicast packet; routers upload waiting
//     payloads into passing packets but the folding happens at the tree
//     nodes (the driver's software accounts).
//   - AlgFlat is the baseline: every PE unicasts its operand straight to
//     the root, and the root unicasts the result back to every PE.
//   - AlgFused is the INA variant: accumulate packets fold partials inside
//     the routers at every tree level, so each level delivers
//     constant-length packets carrying ready sums.
//
// Every level of every round is checked bit for bit against a
// reduce.Oracle, and the driver implements workload.Driver: it runs alone
// under workload.Run (then Driver.Result), and pipelines issue it as a
// phase like any other traffic stage (then Driver.Snapshot). Rounds are
// sequenced by the shared round loop (internal/round, DESIGN.md §8).
package collective

import (
	"fmt"

	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
)

// Op selects the collective operation.
type Op uint8

// Collective operations.
const (
	// Reduce folds every PE's operand into one value at the tree root
	// (the bottom row's sink on fabrics with east sinks, else the
	// bottom-right PE).
	Reduce Op = iota + 1
	// Broadcast delivers the root's value to every PE.
	Broadcast
	// AllReduce is reduce followed by broadcast: every PE ends the round
	// holding the global sum.
	AllReduce
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case Reduce:
		return "reduce"
	case Broadcast:
		return "bcast"
	case AllReduce:
		return "allreduce"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// OpByName parses a collective operation name.
func OpByName(name string) (Op, error) {
	switch name {
	case "reduce":
		return Reduce, nil
	case "bcast", "broadcast":
		return Broadcast, nil
	case "allreduce":
		return AllReduce, nil
	default:
		return 0, fmt.Errorf("collective: unknown op %q (reduce, bcast, allreduce)", name)
	}
}

// Algorithm selects the transport moving operands through the tree.
type Algorithm uint8

// Collective algorithms.
const (
	// AlgTree moves operands in gather packets level by level and folds
	// them at the tree nodes.
	AlgTree Algorithm = iota + 1
	// AlgFlat unicasts every operand straight to the root (and the result
	// straight back): the tree-less baseline.
	AlgFlat
	// AlgFused folds partials inside the routers (INA) at every tree
	// level; needs noc.Config.EnableINA.
	AlgFused
)

// scheme maps the tree-level algorithms onto the network's collection
// transport (AlgFlat bypasses the tree's line plans altogether).
func (a Algorithm) scheme() noc.CollectScheme {
	if a == AlgFused {
		return noc.CollectINA
	}
	return noc.CollectGather
}

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgTree:
		return "tree"
	case AlgFlat:
		return "flat"
	case AlgFused:
		return "fused"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// AlgorithmByName parses a collective algorithm name.
func AlgorithmByName(name string) (Algorithm, error) {
	switch name {
	case "tree":
		return AlgTree, nil
	case "flat":
		return AlgFlat, nil
	case "fused", "ina":
		return AlgFused, nil
	default:
		return 0, fmt.Errorf("collective: unknown algorithm %q (tree, flat, fused)", name)
	}
}

// Config parameterizes a collective workload phase: Rounds repetitions of
// the operation, each preceded by ComputeLatency cycles of modeled local
// compute.
type Config struct {
	// Op selects reduce, broadcast or all-reduce.
	Op Op
	// Algorithm selects the tree, flat-unicast or INA-fused transport.
	Algorithm Algorithm
	// Rounds is how many rounds to simulate (>= 1).
	Rounds int
	// ComputeLatency is the cycles from round start until every PE's
	// operand (or, for a pure broadcast, the root's value) is ready.
	ComputeLatency int
	// Values, when set, overrides the deterministic synthetic operand a
	// PE contributes in a round — the metamorphic tests permute values
	// across PEs through it. Nil selects the built-in derivation.
	Values func(node, round int) uint64
	// BroadcastValues, when set, supplies the root's per-round value for
	// Op == Broadcast (len >= Rounds); nil selects a deterministic
	// synthetic value. Ignored by the other ops, whose broadcast value is
	// the reduction result.
	BroadcastValues []uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Op != Reduce && c.Op != Broadcast && c.Op != AllReduce:
		return fmt.Errorf("collective: invalid op %d", c.Op)
	case c.Algorithm != AlgTree && c.Algorithm != AlgFlat && c.Algorithm != AlgFused:
		return fmt.Errorf("collective: invalid algorithm %d", c.Algorithm)
	case c.Rounds < 1:
		return fmt.Errorf("collective: Rounds must be >= 1, got %d", c.Rounds)
	case c.ComputeLatency < 0:
		return fmt.Errorf("collective: ComputeLatency must be >= 0, got %d", c.ComputeLatency)
	case c.Op == Broadcast && c.BroadcastValues != nil && len(c.BroadcastValues) < c.Rounds:
		return fmt.Errorf("collective: BroadcastValues has %d entries for %d rounds",
			len(c.BroadcastValues), c.Rounds)
	}
	return nil
}

// Result summarizes a collective run.
type Result struct {
	// Op, Algorithm, Rows, Cols, Rounds echo the run parameters.
	Op        Op
	Algorithm Algorithm
	Rows      int
	Cols      int
	Rounds    int

	// RoundCycles samples each round's latency (compute included);
	// PacketLatency samples the end-to-end latency of every packet the
	// driver received.
	RoundCycles   stats.Sample
	PacketLatency stats.Sample

	// RootFlits and RootPackets count the flit and packet transactions at
	// the tree root's ejection point — the global-buffer sink port for a
	// mesh Reduce, the root PE's NIC otherwise. This is the serialization
	// bottleneck the tree amortizes, the number the
	// experiments.CollectiveComparison acceptance bound compares against
	// repeated row collection.
	RootFlits   uint64
	RootPackets uint64

	// Merges counts in-network merges and piggyback uploads; SelfInitiated
	// the δ-timeout fallback packets.
	Merges        uint64
	SelfInitiated uint64

	// Sums records each round's collective value: the reduction result
	// (Reduce, AllReduce) or the broadcast value (Broadcast).
	Sums []uint64
	// NodeValues records, for ops with a broadcast leg, the value each
	// node received in each round ([round][node]); the metamorphic
	// equivalence tests compare these matrices bit for bit.
	NodeValues [][]uint64

	// OracleErrors counts reductions whose delivered sum or operand count
	// disagreed with the software oracle at any tree level (must be 0);
	// BroadcastErrors counts wrong, duplicate or misaddressed broadcast
	// deliveries (must be 0).
	OracleErrors    int
	BroadcastErrors int

	// Activity holds the NoC event counts; Cycles the run length.
	Activity noc.Activity
	Cycles   int64
}
