package noc

import (
	"encoding/json"
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/router"
)

// SnapshotVersion tags the snapshot envelope. Any change to a component
// State layout or to the capture/restore rules must bump it; Restore
// rejects snapshots from other versions instead of misinterpreting them.
const SnapshotVersion = "gathernoc/noc.Snapshot/v2"

// Snapshot is the complete serialized mutable state of a Network at a
// cycle boundary: the engine clock, the per-NIC packet-id counters, and
// every router, link, NIC and sink in deterministic construction order.
// Immutable structure — topology, routing, wiring, capacities — is not
// serialized: Restore applies a snapshot onto a freshly constructed
// Network of the same canonical configuration (enforced via ConfigHash,
// so result-invariant knobs like Shards may differ between the capturing
// and restoring processes).
type Snapshot struct {
	Version    string
	ConfigHash string
	// Config is the capturing network's configuration (telemetry cleared:
	// snapshots reject telemetry-enabled networks), letting a resuming
	// process reconstruct the network without out-of-band state.
	Config  Config
	Cycle   int64
	PidSeq  []uint64
	Routers []router.State
	Links   []link.State
	NICs    []nic.State
	Sinks   []nic.EjectorState `json:",omitempty"`
}

// Snapshot captures the network's complete mutable state. It must be
// called at a cycle boundary (between engine steps — never from inside a
// Tick or Commit). Telemetry-enabled networks are rejected: the
// collector's epoch ring and trace buffers are append-only observations
// of a specific run, and checkpointing them is not supported.
func (nw *Network) Snapshot() (*Snapshot, error) {
	if nw.tele != nil {
		return nil, fmt.Errorf("noc: snapshot of a telemetry-enabled network is unsupported")
	}
	s := &Snapshot{
		Version:    SnapshotVersion,
		ConfigHash: nw.cfg.Hash(),
		Config:     nw.cfg,
		Cycle:      nw.engine.Cycle(),
		PidSeq:     append([]uint64(nil), nw.pidSeq...),
	}
	s.Config.Telemetry = nil
	s.Routers = make([]router.State, len(nw.routers))
	for i, r := range nw.routers {
		s.Routers[i] = r.CaptureState()
	}
	s.Links = make([]link.State, len(nw.links))
	for i, l := range nw.links {
		s.Links[i] = l.CaptureState()
	}
	s.NICs = make([]nic.State, len(nw.nics))
	for i, n := range nw.nics {
		ns, err := n.CaptureState()
		if err != nil {
			return nil, err
		}
		s.NICs[i] = ns
	}
	for _, sk := range nw.sinks {
		es, err := sk.ej.CaptureState()
		if err != nil {
			return nil, err
		}
		s.Sinks = append(s.Sinks, es)
	}
	return s, nil
}

// AppendState appends the fabric's decision state at a cycle boundary to
// buf, every absolute cycle written relative to base, and returns the
// extended buffer. It is the periodicity proof's encoding (round.Loop): two
// boundaries whose encodings are equal byte for byte, and between which
// ClockTies did not move, are followed by the same schedule shifted in
// time. Every router, link, NIC and sink appends itself, in construction
// order, through the appender beside its CaptureState; flit.Encoder says
// which values are normalized. What a Snapshot carries and the encoding
// leaves out:
//
//   - statistics (router, link, NIC and ejector counters, the packet
//     latency sample), which no decision reads;
//   - PidSeq: packet ids are encoded by first appearance, and whatever the
//     counters read, a NIC's next id equals no live one;
//   - the engine clock, which is base plus one at the boundary after a
//     round opens;
//   - fault state (a link's doomed set and owed credits, the ejectors'
//     dedup sets and confirmations, the NICs' retransmission tables),
//     present only on fabrics Bare refuses.
//
// The engine's sleep/wake schedule (awake bits, armed timers) is not
// encoded either: by the Idle contract it decides when a component is
// evaluated, never what an evaluation does. Nor are the NICs' δ overrides,
// which Submit arms on the submit that reads them. AppendState allocates
// nothing once the network's encoder has grown to the fabric's size.
func (nw *Network) AppendState(buf []byte, base int64) []byte {
	e := &nw.enc
	e.Reset(buf, base)
	for _, r := range nw.routers {
		r.AppendState(e)
	}
	for _, l := range nw.links {
		l.AppendState(e)
	}
	for _, n := range nw.nics {
		n.AppendState(e)
	}
	for _, s := range nw.sinks {
		s.ej.AppendState(e)
	}
	buf = e.Bytes()
	e.Reset(nil, 0) // keep no hold on the caller's buffer
	return buf
}

// Bare reports whether the engine runs the fabric as built and nothing
// else: no component registered since New (a traffic generator), no
// telemetry, no fault injection and no stall watchdog. On a bare fabric a
// round loop run alone may prove that its rounds repeat and skip them
// (workload.Run): nothing but the fabric and the loop holds state, and
// nothing in the run reads the absolute cycle but the VA rotation
// (ClockTies). Fault injection draws on the absolute cycle, telemetry
// records it, and a watchdog polls at cycles of its own.
func (nw *Network) Bare() bool {
	return nw.engine.Mark() == nw.built && nw.tele == nil && nw.injector == nil &&
		nw.engine.Watchdog() == nil
}

// ClockTies sums the routers' router.Router.ClockTies: the VA passes so far
// whose outcome the cycle-derived rotation may have decided.
func (nw *Network) ClockTies() uint64 {
	var n uint64
	for _, r := range nw.routers {
		n += r.ClockTies()
	}
	return n
}

// ClockPeriod returns the period, in cycles, of the routers' VA rotation: a
// schedule shifted by a multiple of it meets every rotation in the same
// phase, ties or not.
func (nw *Network) ClockPeriod() int64 { return nw.routers[0].ClockPeriod() }

// Restore applies a snapshot onto this network, which must be freshly
// constructed (no cycles run) from a configuration with the same
// canonical hash as the capturing one — shard count and the other
// result-invariant knobs may differ, everything else may not. All
// restored flits are acquired from this network's pool, so the pool's
// live accounting balances exactly as in an uninterrupted run.
func (nw *Network) Restore(s *Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("noc: snapshot version %q, want %q", s.Version, SnapshotVersion)
	}
	if h := nw.cfg.Hash(); s.ConfigHash != h {
		return fmt.Errorf("noc: snapshot config hash %.12s does not match network config hash %.12s", s.ConfigHash, h)
	}
	if nw.engine.Cycle() != 0 {
		return fmt.Errorf("noc: restore target must be a fresh network (engine at cycle %d)", nw.engine.Cycle())
	}
	if nw.tele != nil {
		return fmt.Errorf("noc: restore onto a telemetry-enabled network is unsupported")
	}
	if len(s.Routers) != len(nw.routers) || len(s.Links) != len(nw.links) ||
		len(s.NICs) != len(nw.nics) || len(s.Sinks) != len(nw.sinks) ||
		len(s.PidSeq) != len(nw.pidSeq) {
		return fmt.Errorf("noc: snapshot shape mismatch (%d/%d routers, %d/%d links, %d/%d nics, %d/%d sinks)",
			len(s.Routers), len(nw.routers), len(s.Links), len(nw.links),
			len(s.NICs), len(nw.nics), len(s.Sinks), len(nw.sinks))
	}
	copy(nw.pidSeq, s.PidSeq)
	numNodes := nw.topo.NumNodes()
	for i, r := range nw.routers {
		n := nw.nics[i]
		if err := r.RestoreState(s.Routers[i], nw.poolFor(nw.shardOfNode(r.ID())), numNodes,
			n.GatherAckFunc(), n.ReduceAckFunc()); err != nil {
			return err
		}
	}
	for i, l := range nw.links {
		l.RestoreState(s.Links[i], nw.poolFor(nw.linkRecs[i].downShard), numNodes)
	}
	for i, n := range nw.nics {
		if err := n.RestoreState(s.NICs[i], numNodes); err != nil {
			return err
		}
	}
	for i, sk := range nw.sinks {
		if err := sk.ej.RestoreState(s.Sinks[i], numNodes); err != nil {
			return err
		}
	}
	nw.engine.RestoreCycle(s.Cycle)
	return nil
}

// poolFor returns the flit pool view owned by shard sh (the root pool on
// sequential networks) — the same pool the shard's components were wired
// with, so restored flits land in the view that will release them.
func (nw *Network) poolFor(sh int) *flit.Pool {
	if nw.pools == nil {
		return nw.pool
	}
	return nw.pools[sh]
}

// EncodeSnapshot serializes a snapshot to deterministic JSON (one
// encoding per state, fit for content addressing and golden comparison).
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("noc: decoding snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("noc: snapshot version %q, want %q", s.Version, SnapshotVersion)
	}
	return &s, nil
}
