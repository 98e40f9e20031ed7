package nic

import (
	"gathernoc/internal/flit"
	"gathernoc/internal/telemetry"
)

// reliableEntry tracks one payload the NIC has pushed into the fabric but
// not yet seen confirmed by the reliability hub: the payload itself (so a
// retransmission can rebuild the packet), the workload tag it was sent
// under, its retransmission deadline and how many retries it has burned.
type reliableEntry struct {
	payload  flit.Payload
	tag      flit.Tag
	deadline int64
	attempt  int
}

// reliableTable is a NIC's end-to-end reliability state (DESIGN.md §12):
// every payload entering the fabric from this node is tracked by its
// run-unique Seq until an ejector confirms delivery; entries that outlive
// their deadline are retransmitted as plain unicast payloads with capped
// exponential backoff, and abandoned after maxRetries so a permanently
// partitioned destination leaves the NIC quiet (for the stall watchdog)
// instead of retrying forever.
//
// All mutation happens either in the NIC's tick (track, sweep) or in the
// serial sub-phase (Confirm via the reliability hub), so the table has one
// writer per engine phase and its behavior is shard-count-invariant.
type reliableTable struct {
	entries []reliableEntry
	index   map[uint64]int // payload Seq -> entries slot

	base       int64 // base timeout in cycles
	backoffCap int   // max doublings
	maxRetries int   // retransmissions before abandonment
}

// EnableReliability switches on end-to-end payload tracking with the given
// base retransmission timeout, backoff doubling cap and retry bound (see
// fault.Config). Call once at wiring time, before traffic.
func (n *NIC) EnableReliability(timeout int64, backoffCap, maxRetries int) {
	n.reliable = &reliableTable{
		index:      make(map[uint64]int),
		base:       timeout,
		backoffCap: backoffCap,
		maxRetries: maxRetries,
	}
}

// ReliablePending reports payloads tracked but not yet confirmed
// delivered (or abandoned).
func (n *NIC) ReliablePending() int {
	if n.reliable == nil {
		return 0
	}
	return len(n.reliable.entries)
}

// SetTelemetry attaches a lifecycle-trace probe for retransmission events.
// The probe must belong to the shard that ticks this NIC.
func (n *NIC) SetTelemetry(p *telemetry.Probe) { n.probe = p }

// track registers a payload entering the fabric. Idempotent by Seq: a
// retransmission re-enters the send paths but must keep its entry's
// attempt count and deadline.
func (n *NIC) track(p flit.Payload, tag flit.Tag) {
	rt := n.reliable
	if _, ok := rt.index[p.Seq]; ok {
		return
	}
	rt.index[p.Seq] = len(rt.entries)
	deadline := n.currentCycle() + rt.base
	rt.entries = append(rt.entries, reliableEntry{payload: p, tag: tag, deadline: deadline})
	n.sweepBy(deadline)
	n.wake.Wake()
}

// ConfirmDelivery removes the tracked entry for a delivered payload.
// Called by the network's reliability hub on the serial sub-phase; a Seq
// with no entry (already confirmed, abandoned, or delivered on first try
// before any retransmit — confirmations are idempotent) is ignored. The
// NIC is woken so that it arms its timer for the deadlines that are left.
func (n *NIC) ConfirmDelivery(seq uint64) {
	rt := n.reliable
	if rt == nil {
		return
	}
	i, ok := rt.index[seq]
	if !ok {
		return
	}
	rt.removeAt(i)
	n.wake.Wake()
}

// removeAt deletes the entry in slot i by swapping the last entry in,
// keeping the index map consistent. Sweep order changes deterministically
// (the same way at every shard count), which is all equivalence needs.
func (rt *reliableTable) removeAt(i int) {
	last := len(rt.entries) - 1
	delete(rt.index, rt.entries[i].payload.Seq)
	if i != last {
		rt.entries[i] = rt.entries[last]
		rt.index[rt.entries[i].payload.Seq] = i
	}
	rt.entries = rt.entries[:last]
}

// sweepReliable fires retransmissions for entries past their deadline and
// books every deadline that is left with sweepBy.
// Whatever transport carried the original (unicast, gather piggyback, INA
// merge), the retransmission is a plain unicast payload: after a loss the
// collective path is suspect, so the NIC degrades to repetitive unicast —
// the reduction stays oracle-exact because the ejector
// delivers each Seq exactly once no matter which copy arrives.
func (n *NIC) sweepReliable() {
	rt := n.reliable
	if rt == nil || len(rt.entries) == 0 {
		return
	}
	for i := 0; i < len(rt.entries); i++ {
		e := &rt.entries[i]
		if n.now < e.deadline {
			n.sweepBy(e.deadline)
			continue
		}
		if e.attempt >= rt.maxRetries {
			n.AbandonedPayloads.Inc()
			rt.removeAt(i)
			i--
			continue
		}
		e.attempt++
		shift := e.attempt
		if shift > rt.backoffCap {
			shift = rt.backoffCap
		}
		e.deadline = n.now + rt.base<<shift
		n.sweepBy(e.deadline)
		payload, tag := e.payload, e.tag
		pid := n.SendUnicastPayload(tag, payload.Dst, payload)
		n.Retransmits.Inc()
		if n.probe != nil && n.probe.Sampled(pid) {
			n.probe.Emit(telemetry.Event{Cycle: n.now, Kind: telemetry.EvRetransmit,
				Packet: pid, Tag: tag, Loc: int32(n.id), Aux: int64(payload.Seq)})
		}
	}
}
