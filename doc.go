// Package gathernoc reproduces "Improving the Performance of a NoC-based
// CNN Accelerator with Gather Support" (Tiwari et al., IEEE SOCC 2020;
// arXiv:2108.02567): a cycle-accurate virtual-channel wormhole mesh NoC
// simulator whose routers can piggyback a PE's partial-sum payload onto a
// passing gather packet, compared against the repetitive-unicast baseline
// on AlexNet and VGG-16 convolution workloads mapped as output-stationary
// systolic arrays.
//
// Beyond the paper, internal/reduce implements the follow-on in-network
// accumulation (INA) idea (arXiv:2209.10056) as a fourth packet type,
// flit.Accumulate: a constant 2-flit packet whose tail flit carries a
// running sum that routers extend in place. A packet's walk down a row
// looks like this — the leftmost PE launches the packet seeded with its
// own partial sum and a merge budget in the header's ASpace field; at
// each hop, route computation reserves the local accumulation station's
// operand when the destination and reduction ID match, decrementing
// ASpace; the reserved operand's value is added into the accumulator
// during the tail flit's idle RC/VA pipeline slots (exact wrap-around
// uint64 arithmetic, one adder event in the power model); operands the
// packet misses fall back to self-initiated accumulate packets after the
// δ timeout gather payloads wait out. The east sink thus receives the row's bit-exact sum
// in one 2-flit packet instead of η gathered payloads, checked against a
// software reduction oracle (reduce.Oracle).
//
// The interconnect fabric and routing algorithm are pluggable
// (internal/topology): a Topology/Routing interface pair with mesh and
// 2-D torus fabrics and XY dimension-order, west-first and odd-even
// routing. On the torus, dimension-order routing exploits the wraparound
// links under two dateline VC classes for deadlock freedom, and row
// collection generalizes through noc.Network.RowLine — two initiators
// cover each row ring where no single minimal route can. The paper's
// mesh + XY configuration remains the bit-pinned default; DESIGN.md §7
// documents the interfaces, the deadlock arguments and the extension
// guide.
//
// The root package carries the integration tests and the benchmark harness
// (one benchmark per paper table/figure); the implementation lives under
// internal/ — see README.md for the architecture map and the reproduced
// results, DESIGN.md for the modelling decisions and bench/README.md for
// the repository benchmark.
package gathernoc
