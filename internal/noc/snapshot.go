package noc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"gathernoc/internal/flit"
)

// SnapshotVersion tags the snapshot envelope. Any change to what a
// component's AppendState writes in absolute mode, or to the envelope, must
// bump it; DecodeSnapshot and Restore refuse snapshots from other versions
// instead of misreading them. v2 was JSON; v3 is the absolute encoding;
// v4 writes a statistics sample as its distinct values and their counts
// (flit.Encoder.Sample) and no longer has the ejectors' latency samples.
const SnapshotVersion = "gathernoc/noc.Snapshot/v4"

// Snapshot is the complete mutable state of a Network at a cycle boundary:
// the capturing network's configuration, the engine clock, and State, the
// absolute encoding (flit.Encoder) of the per-NIC packet-id counters and of
// every router, link, NIC and sink in construction order. Immutable
// structure — topology, routing, wiring, capacities — is not encoded:
// Restore loads a snapshot onto a freshly constructed Network of the same
// canonical configuration (enforced via Config.Hash, so result-invariant
// knobs like Shards may differ between the capturing and restoring
// processes).
type Snapshot struct {
	Version string
	// Config is the capturing network's configuration (telemetry cleared:
	// snapshots reject telemetry-enabled networks), letting a resuming
	// process reconstruct the network without out-of-band state.
	Config Config
	Cycle  int64
	State  []byte
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
	s := &Snapshot{Version: SnapshotVersion, Config: nw.cfg, Cycle: nw.engine.Cycle()}
	s.Config.Telemetry = nil
	e := &nw.enc
	e.ResetAbsolute(nil)
	e.SetNow(nw.engine.Cycle())
	for _, n := range nw.pidSeq {
		e.Uint(n)
	}
	nw.appendComponents(e)
	s.State = e.Bytes()
	e.ResetAbsolute(nil) // keep no hold on the snapshot's bytes
	return s, nil
}

// AppendState appends the fabric's decision state at a cycle boundary to
// buf, every absolute cycle written relative to base, and returns the
// extended buffer. It is the periodicity proof's encoding (round.Loop): two
// boundaries whose encodings are equal byte for byte, and between which
// ClockTies did not move, are followed by the same schedule shifted in
// time. Every router, link, NIC and sink appends itself, in construction
// order, through the AppendState a Snapshot writes in absolute mode, in
// relative mode (flit.Encoder says which values are normalized). What a
// Snapshot carries and this encoding leaves out:
//
//   - statistics (router, link, NIC and ejector counters, the packet
//     latency sample, clock ties), which no decision reads;
//   - payload values, which the fabric adds up but never branches on;
//   - the packet-id counters: packet ids are encoded by first appearance,
//     and whatever the counters read, a NIC's next id equals no live one;
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
	e.SetNow(nw.engine.Cycle())
	nw.appendComponents(e)
	buf = e.Bytes()
	e.Reset(nil, 0) // keep no hold on the caller's buffer
	return buf
}

// appendComponents appends every router, link, NIC and sink, in
// construction order.
func (nw *Network) appendComponents(e *flit.Encoder) {
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

// Restore loads a snapshot onto this network, which must be freshly
// constructed (no cycles run) from a configuration with the same
// canonical hash as the capturing one — shard count and the other
// result-invariant knobs may differ, everything else may not. All
// restored flits are acquired from this network's pool, so the pool's
// live accounting balances exactly as in an uninterrupted run. Every
// value is bounds-checked as it is read, and the loaded routers must pass
// CheckInvariants; a snapshot that fails either is refused with an error,
// after which the network is fit only for Close.
func (nw *Network) Restore(s *Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("noc: snapshot version %q, want %q", s.Version, SnapshotVersion)
	}
	if got, h := s.Config.Hash(), nw.cfg.Hash(); got != h {
		return fmt.Errorf("noc: snapshot config hash %.12s does not match network config hash %.12s", got, h)
	}
	if nw.engine.Cycle() != 0 {
		return fmt.Errorf("noc: restore target must be a fresh network (engine at cycle %d)", nw.engine.Cycle())
	}
	if nw.tele != nil {
		return fmt.Errorf("noc: restore onto a telemetry-enabled network is unsupported")
	}
	if s.Cycle < 0 {
		return fmt.Errorf("noc: snapshot at cycle %d", s.Cycle)
	}
	d := nw.decoder(s.State, s.Cycle)
	for i := range nw.pidSeq {
		nw.pidSeq[i] = d.Uint()
	}
	err := nw.loadComponents(d)
	if err == nil && d.Remaining() > 0 {
		err = fmt.Errorf("%d bytes past the fabric's state", d.Remaining())
	}
	d.Reset(nil, 0, 0) // keep no hold on the snapshot's bytes
	if err == nil {
		err = nw.CheckInvariants()
	}
	if err != nil {
		return fmt.Errorf("noc: restore: %w", err)
	}
	nw.engine.RestoreCycle(s.Cycle)
	// The state came in by a load, which no NIC's Fed sees: Release must
	// not take the network for one whose components never left it.
	nw.leased = false
	return nil
}

// decoder returns a decoder of buf, a state taken at cycle now, checking
// node ids against the fabric's.
func (nw *Network) decoder(buf []byte, now int64) *flit.Decoder {
	d := &nw.dec
	d.Reset(buf, nw.topo.NumNodes(), nw.topo.NumNodes()+len(nw.sinks))
	d.SetNow(now)
	return d
}

// loadComponents loads every router, link, NIC and sink from d, in the
// order appendComponents wrote them. Flits are acquired from the pool view
// of the shard that owns the component holding them.
func (nw *Network) loadComponents(d *flit.Decoder) error {
	for _, r := range nw.routers {
		if err := r.LoadState(d); err != nil {
			return fmt.Errorf("router %d: %w", r.ID(), err)
		}
	}
	for i, l := range nw.links {
		if err := l.LoadState(d, nw.poolFor(int(nw.linkRecs[i].downShard)), nw.cfg.Router.VCs); err != nil {
			return fmt.Errorf("link %s: %w", l.Name(), err)
		}
	}
	for _, n := range nw.nics {
		if err := n.LoadState(d); err != nil {
			return fmt.Errorf("nic %d: %w", n.ID(), err)
		}
	}
	for _, s := range nw.sinks {
		if err := s.ej.LoadState(d); err != nil {
			return fmt.Errorf("sink %d: %w", s.row, err)
		}
	}
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

// EncodeSnapshot serializes a snapshot: the version line, the Config as
// JSON (length first), the cycle, then the state bytes.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	cfg, err := json.Marshal(s.Config)
	if err != nil {
		return nil, fmt.Errorf("noc: encoding snapshot config: %w", err)
	}
	b := append([]byte(s.Version), '\n')
	b = binary.AppendUvarint(b, uint64(len(cfg)))
	b = append(b, cfg...)
	b = binary.AppendVarint(b, s.Cycle)
	return append(b, s.State...), nil
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot, refusing
// another version by name. The state bytes are checked by Restore.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	version, rest, _ := bytes.Cut(data, []byte{'\n'})
	if string(version) != SnapshotVersion {
		return nil, fmt.Errorf("noc: snapshot version %.40q, want %q", version, SnapshotVersion)
	}
	s := &Snapshot{Version: SnapshotVersion}
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return nil, fmt.Errorf("noc: decoding snapshot: config truncated")
	}
	if err := json.Unmarshal(rest[k:k+int(n)], &s.Config); err != nil {
		return nil, fmt.Errorf("noc: decoding snapshot config: %w", err)
	}
	rest = rest[k+int(n):]
	if s.Cycle, k = binary.Varint(rest); k <= 0 {
		return nil, fmt.Errorf("noc: decoding snapshot: cycle truncated")
	}
	s.State = rest[k:]
	return s, nil
}
