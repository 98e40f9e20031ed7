package noc

import (
	"fmt"
	"slices"
	"strings"

	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/router"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// Config describes a complete network instance. DefaultConfig returns the
// paper's Table I settings.
type Config struct {
	// Rows and Cols give the fabric dimensions (Table I: 8x8 and 16x16).
	Rows int
	Cols int
	// Topology selects the interconnect fabric: "" or "mesh" for the
	// paper's 2-D mesh, or "torus" for the wraparound variant. The torus
	// has no east edge, so it is incompatible with EastSinks (row
	// collection targets the row's east-column PE instead) and, under
	// dimension-order routing, partitions the VCs into two dateline
	// classes — which excludes the GatherVC reservation and needs
	// Router.VCs >= 2. Validate spells out each conflict.
	Topology string
	// Router holds the per-router microarchitecture parameters.
	Router router.Config
	// LinkLatency is the flit traversal time of every channel in cycles.
	LinkLatency int
	// FlitBits is the flit width (Table I: 98).
	FlitBits int
	// PayloadBits is the gather payload width (Table I: 32).
	PayloadBits int
	// UnicastFlits is the non-gather packet length (Table I: 2).
	UnicastFlits int
	// GatherCapacity is η, the payload capacity of one gather packet and
	// the merge budget of one accumulate packet (its own operand
	// included); 0 selects the row width (Cols), the value that reproduces
	// Table I's 4-flit gather packets on the 8x8 mesh and lets one
	// accumulate packet reduce a full row.
	GatherCapacity int
	// Delta is the δ timeout in cycles (Table I: 5), for gather payloads
	// and accumulation operands alike.
	Delta int64
	// EnableINA turns on the in-network accumulation subsystem (DESIGN.md
	// §5): workload layers may launch flit.Accumulate packets whose
	// partial sums are reduced inside the routers as they flow east, so
	// one constant-length packet delivers a whole row's sum. Off by
	// default; with it off no accumulate packet ever enters the fabric
	// and the network's schedules are bit-identical to the pre-INA
	// simulator.
	EnableINA bool
	// EjectRate is the NIC ejection drain rate in flits/cycle.
	EjectRate int
	// EastSinks attaches a global-buffer sink past the east edge of every
	// row, addressed by RowSinkID, matching Fig. 1/Fig. 2's buffer
	// placement.
	EastSinks bool
	// SinkDrainRate is the buffer sink drain rate in flits/cycle.
	SinkDrainRate int
	// Routing selects the unicast/gather routing algorithm: "" or "xy"
	// for deterministic dimension-order routing (the paper's setting; on
	// the torus the wrap-aware minimal variant with dateline VC classes),
	// "westfirst" for minimal adaptive west-first turn-model routing, or
	// "oddeven" for the odd-even turn model — both with credit-based
	// output selection, and both confined to the mesh sub-network on a
	// torus (see topology.NewRouting). Multicast always uses the XY tree.
	Routing string
	// Shards selects the engine backend: 0 (default) runs the sequential
	// single-goroutine engine; N >= 1 partitions the fabric into N
	// contiguous row blocks, each ticked and committed by its own worker
	// goroutine under the deterministic two-phase schedule (DESIGN.md §9).
	// Schedules are bit-identical for every value, sequential included;
	// shard counts above Rows are clamped (see EffectiveShards), and
	// Shards=1 exercises the sharded machinery without parallelism. Each
	// shard sleeps and wakes its components as the sequential engine does
	// (sim.Engine.SetAlwaysTick, the tests' naive reference, turns that
	// off on either); only the link halves on a shard boundary and the
	// serial sub-phase run every cycle.
	Shards int
	// DebugFlitPool enables the flit pool's ownership checker: every
	// acquire/release is tracked, double releases panic, and tests can
	// assert a drained network leaked nothing (Network.FlitPool().Live()
	// == 0). Off by default — the tracking map costs real time on the
	// hot path.
	DebugFlitPool bool
	// Telemetry enables the observability layer (DESIGN.md §11): an epoch
	// metrics collector snapshotting counter deltas every Telemetry.Epoch
	// cycles and a sampled flit-lifecycle tracer, harvested via
	// Network.HarvestTelemetry. Nil (the default) wires nothing — every
	// probe pointer stays nil and the hot path is unchanged, keeping
	// schedules bit-identical to a telemetry-free build. The collector is
	// purely observational, so schedules are identical with it on, too.
	Telemetry *telemetry.Config
	// Faults enables deterministic fault injection and the recovery
	// machinery (DESIGN.md §12): seeded transient flit drops/corruption on
	// the inter-router links, scheduled link and router outages, NIC-level
	// end-to-end retransmission with duplicate suppression at the ejectors,
	// and fault-aware adaptive routing. Nil (the default), or a config with
	// no fault source, wires nothing — schedules stay bit-identical to a
	// fault-free build at every shard count.
	Faults *fault.Config
	// SinkPacketOverhead is the per-packet write-transaction cost at the
	// global buffer, in cycles: after a packet's tail is consumed, the
	// buffer port stalls this long before accepting further flits. This
	// is the serialization that makes repetitive unicast pay per packet
	// at the memory while a gather packet pays once per row; without it
	// (0) the wormhole pipeline absorbs RU traffic and the paper's
	// latency gap does not materialize (DESIGN.md §3). The default of 5
	// (one SRAM transaction, on par with T_MAC) calibrates the simulated
	// Table II row.
	SinkPacketOverhead int64
}

// DefaultTorusConfig returns the Table I configuration transplanted onto
// a rows×cols torus: east sinks are disabled (the torus has no east edge;
// row collection targets the row's east-column PE, see
// Network.RowLine) and the default dimension-order routing uses
// dateline VC classes for deadlock freedom.
func DefaultTorusConfig(rows, cols int) Config {
	cfg := DefaultConfig(rows, cols)
	cfg.Topology = "torus"
	cfg.EastSinks = false
	return cfg
}

// DefaultConfig returns the Table I network configuration for a rows×cols
// mesh with east-edge global-buffer sinks.
func DefaultConfig(rows, cols int) Config {
	return Config{
		Rows:               rows,
		Cols:               cols,
		Router:             router.DefaultConfig(),
		LinkLatency:        1,
		FlitBits:           flit.DefaultFlitBits,
		PayloadBits:        flit.DefaultPayloadBits,
		UnicastFlits:       2,
		Delta:              5,
		EjectRate:          1,
		EastSinks:          true,
		SinkDrainRate:      1,
		SinkPacketOverhead: 5,
	}
}

// EffectiveTopology resolves the topology default ("") to "mesh".
func (c Config) EffectiveTopology() string {
	if c.Topology == "" {
		return "mesh"
	}
	return c.Topology
}

// EffectiveRouting resolves the routing default ("") to "xy".
func (c Config) EffectiveRouting() string {
	if c.Routing == "" {
		return "xy"
	}
	return c.Routing
}

// Validate reports configuration errors, including inconsistent
// topology/routing/sink combinations: a config that would silently
// misroute (east sinks hanging off a wrapped torus edge, a dedicated
// gather VC colliding with the dateline VC classes) is rejected with an
// error naming the conflict instead of producing wrong schedules.
func (c Config) Validate() error {
	switch {
	case c.Rows < 1 || c.Cols < 1:
		return fmt.Errorf("noc: fabric %dx%d invalid", c.Rows, c.Cols)
	case c.Shards < 0:
		return fmt.Errorf("noc: Shards must be >= 0, got %d", c.Shards)
	case c.LinkLatency < 1:
		return fmt.Errorf("noc: LinkLatency must be >= 1, got %d", c.LinkLatency)
	case c.LinkLatency > link.MaxLatency:
		return fmt.Errorf("noc: %w: LinkLatency must be <= %d, got %d", link.ErrLatencyTooLong, link.MaxLatency, c.LinkLatency)
	case c.UnicastFlits < 1:
		return fmt.Errorf("noc: UnicastFlits must be >= 1, got %d", c.UnicastFlits)
	case c.GatherCapacity < 0:
		return fmt.Errorf("noc: GatherCapacity must be >= 0, got %d", c.GatherCapacity)
	case c.EjectRate < 1:
		return fmt.Errorf("noc: EjectRate must be >= 1, got %d", c.EjectRate)
	case c.EastSinks && c.SinkDrainRate < 1:
		return fmt.Errorf("noc: SinkDrainRate must be >= 1, got %d", c.SinkDrainRate)
	case c.SinkPacketOverhead < 0:
		return fmt.Errorf("noc: SinkPacketOverhead must be >= 0, got %d", c.SinkPacketOverhead)
	case c.Topology != "" && !slices.Contains(topology.TopologyNames(), c.Topology):
		return fmt.Errorf("noc: unknown topology %q (%s)", c.Topology, strings.Join(topology.TopologyNames(), ", "))
	case c.Routing != "" && !slices.Contains(topology.RoutingNames(), c.Routing):
		return fmt.Errorf("noc: unknown routing %q (%s)", c.Routing, strings.Join(topology.RoutingNames(), ", "))
	}
	if c.EffectiveTopology() == "torus" {
		switch {
		case c.EastSinks:
			return fmt.Errorf("noc: EastSinks needs a mesh east edge, but on a torus every east port wraps around; " +
				"disable EastSinks (row collection then targets the row's east-column PE, see Network.RowLine)")
		case c.EffectiveRouting() == "xy" && c.Router.VCs < 2:
			return fmt.Errorf("noc: torus dimension-order routing needs Router.VCs >= 2 for its dateline VC classes, got %d", c.Router.VCs)
		case c.EffectiveRouting() == "xy" && c.Router.GatherVC >= 0:
			return fmt.Errorf("noc: GatherVC %d conflicts with the torus dateline VC classes; "+
				"use GatherVC=-1 or an adaptive routing (westfirst, oddeven)", c.Router.GatherVC)
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.Router.Validate()
}

// EffectiveShards resolves the shard count the engine actually runs:
// 0 stays sequential, and positive counts are clamped to Rows so every
// shard owns at least one row of the fabric partition.
func (c Config) EffectiveShards() int {
	if c.Shards > c.Rows {
		return c.Rows
	}
	return c.Shards
}

// EffectiveGatherCapacity resolves the η=0 default to the row width.
func (c Config) EffectiveGatherCapacity() int {
	if c.GatherCapacity > 0 {
		return c.GatherCapacity
	}
	return c.Cols
}

// Format derives the flit format of a network of this configuration: the
// flit and payload widths over Rows·Cols nodes plus one sink id per row. New
// builds the network's format with it, and the analytic models read it
// without building a network.
func (c Config) Format() (*flit.Format, error) {
	return flit.NewFormat(c.FlitBits, c.PayloadBits, c.Rows*c.Cols+c.Rows)
}

// HeaderHopLatency returns κ, the per-hop latency of a header flit through
// an uncontended router and its outgoing link.
func (c Config) HeaderHopLatency() int {
	return c.Router.RCDelay + c.Router.VADelay + 1 + c.LinkLatency
}
