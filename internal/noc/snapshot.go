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

// Fork clones the network mid-run: a new Network is built from the same
// configuration and the current state is copied onto it in memory. The
// fork owns all of its state — flits are acquired from its own pool,
// destination sets and statistics are deep-copied, station entries are
// re-acked through the fork's own NICs — so the original and the fork
// may run on independently (warm-start reuse: simulate a shared prefix
// once, fork per divergent suffix). Callers that attach drivers or
// controllers must re-attach equivalents to the fork; only fabric state
// is cloned. Close the fork when done (sharded engines own goroutines).
func (nw *Network) Fork() (*Network, error) {
	s, err := nw.Snapshot()
	if err != nil {
		return nil, err
	}
	clone, err := New(nw.cfg)
	if err != nil {
		return nil, err
	}
	if err := clone.Restore(s); err != nil {
		clone.Close()
		return nil, err
	}
	return clone, nil
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
