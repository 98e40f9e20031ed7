package noc

import (
	"fmt"
	"strings"

	"gathernoc/internal/fault"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/reduce"
	"gathernoc/internal/sim"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// wireFaults compiles Config.Faults into per-link decision state and arms
// the recovery machinery (DESIGN.md §12): transient drop/corrupt rates on
// the inter-router links, outage windows on every link named by a
// LinkOutage or incident to a RouterOutage, a credit flusher per faulted
// link (returning the credits its drops consumed), fault-aware ejectors
// (CRC discard + duplicate suppression), end-to-end reliability on every
// NIC, and the reliability hub that confirms deliveries back to the
// sending NICs on the serial sub-phase. Runs after engine registration and
// before wireTelemetry, so the fault sources are in place when telemetry
// extends its field lists.
//
// Memory (DESIGN.md §12): every faulted link's flusher, decision state and
// owed-credit ledger come out of one fault slab per shard (link.FaultSlab,
// the shard that commits the link's flits), the drop sets out of the
// injector's one block, and the NICs' reliability tables out of their own
// slabs, so the wiring allocates a few objects per shard, not per link.
func (nw *Network) wireFaults() error {
	fc := nw.cfg.Faults

	// Collect the outage windows per link record. A LinkOutage names a
	// directed inter-router link by its endpoints (on a 2-wide torus ring
	// two parallel links connect the same pair; the outage covers both). A
	// RouterOutage covers every link incident to the node, local injection
	// and ejection channels included, partitioning it off the fabric.
	outages := make(map[int]fault.WindowSet)
	for _, o := range fc.Links {
		matched := false
		for i := 0; i < nw.fabricLinks; i++ {
			rec := nw.linkRecs[i]
			if int(rec.upID) == o.SrcNode && int(rec.downID) == o.DstNode {
				outages[i] = append(outages[i], o.Window)
				matched = true
			}
		}
		if !matched {
			return fmt.Errorf("noc: fault link outage %d>%d names no wired inter-router link", o.SrcNode, o.DstNode)
		}
	}
	for _, o := range fc.Routers {
		if o.Node < 0 || o.Node >= nw.topo.NumNodes() {
			return fmt.Errorf("noc: fault router outage node %d outside fabric [0, %d)", o.Node, nw.topo.NumNodes())
		}
		for i, rec := range nw.linkRecs {
			if int(rec.upID) == o.Node || int(rec.downID) == o.Node {
				outages[i] = append(outages[i], o.Window)
			}
		}
	}

	// A fabric link carries fault state under transient rates or an
	// outage; a local or sink channel sees outages only, never the
	// transient inter-router noise. Count them per shard to size the slabs.
	transient := fc.DropRate > 0 || fc.CorruptRate > 0
	faulted := func(i int) bool { return (transient && i < nw.fabricLinks) || len(outages[i]) > 0 }
	perShard := make([]int, max(nw.cfg.EffectiveShards(), 1))
	total := 0
	for i, rec := range nw.linkRecs {
		if faulted(i) {
			perShard[rec.downShard]++
			total++
		}
	}
	vcs := nw.cfg.Router.VCs
	slabs := make([]*link.FaultSlab, len(perShard))
	for sh, n := range perShard {
		slabs[sh] = link.NewFaultSlab(n, vcs)
		if nw.engine.Sharded() {
			nw.engine.ReserveShard(sh, n, 0)
		}
	}
	// The hub below goes to the serial lane, and so does every flusher on
	// the sequential engine.
	serial := 1
	if !nw.engine.Sharded() {
		serial += total
	}
	nw.engine.Reserve(serial, 0)

	inj := fault.NewInjector(fc, total, vcs)
	nw.injector = inj
	nw.portFault = make([]*fault.LinkState, nw.topo.NumNodes()*topology.NumPorts)
	for i := range nw.linkRecs {
		if !faulted(i) {
			continue
		}
		rec := &nw.linkRecs[i]
		cf := slabs[rec.downShard].New(rec.l, nw.poolFor(int(rec.downShard)))
		ls := rec.l.Faults()
		inj.AddLink(ls, i, outages[i], i < nw.fabricLinks)
		if i < nw.fabricLinks {
			nw.portFault[int(rec.upID)*topology.NumPorts+int(rec.outPort)] = ls
		}
		// The flusher ticks on the shard that commits the link's flits, so
		// the owed-credit counters keep a single writer per phase and the
		// wake CommitFlits sends it stays inside that shard.
		cf.SetWake(nw.addTicker(int(rec.downShard), cf))
	}

	// Recovery: exactly-once ejectors everywhere, reliability tables on
	// every NIC, and the hub confirming deliveries back to the senders.
	hub := &reliabilityHub{nw: nw}
	hub.confirmFn = hub.confirm
	// Serial ticker, after the sharded staged dispatcher (registered in
	// register) and before any caller-added controller: in both engine
	// modes a payload assembled in cycle C is confirmed in cycle C, before
	// the workload layer observes the cycle.
	hubWake := nw.wakeFromShards(nw.engine.AddTicker(hub))
	for _, n := range nw.nics {
		n.EnableReliability(fc.EffectiveRetryTimeout(), fc.EffectiveRetryCap(), fc.EffectiveMaxRetries())
		n.Ejector().SetFaultAware(hubWake[nw.shardOfNode(n.ID())])
	}
	for _, s := range nw.sinks {
		s.ej.SetFaultAware(hubWake[nw.shardOfRow(s.row)])
	}
	return nil
}

// reliabilityHub drains every ejector's delivered-payload staging on the
// serial sub-phase — canonical sink-then-NIC order, one goroutine — and
// confirms each payload with the NIC that sent it, closing the end-to-end
// retransmission loop. It sleeps whenever it has run: the ejector that
// stages a delivery wakes it, in the cycle of the delivery.
type reliabilityHub struct {
	nw *Network
	// confirmFn is the bound confirm method, allocated once: DrainDelivered
	// takes a func value.
	confirmFn func(nic.DeliveredPayload)
}

func (h *reliabilityHub) Idle() bool { return true }

func (h *reliabilityHub) Tick(cycle int64) {
	for _, s := range h.nw.sinks {
		s.ej.DrainDelivered(h.confirmFn)
	}
	for _, n := range h.nw.nics {
		n.Ejector().DrainDelivered(h.confirmFn)
	}
}

func (h *reliabilityHub) confirm(d nic.DeliveredPayload) {
	h.nw.nics[d.Src].ConfirmDelivery(d.Seq)
}

// FaultInjector returns the compiled fault state, nil when Config.Faults
// is nil or inactive. Tests and reports read its aggregate counters.
func (nw *Network) FaultInjector() *fault.Injector { return nw.injector }

// filterPorts drops adaptive route alternatives whose outgoing link is
// inside an outage window right now, so the adaptive routings steer around
// scheduled faults. With every alternative cut the original set is kept:
// the packet routes into a dead link and is dropped there, which the
// end-to-end retransmission absorbs.
func (nw *Network) filterPorts(ports []topology.Port, cur topology.NodeID) []topology.Port {
	now := nw.engine.Cycle()
	keep := ports[:0]
	for _, p := range ports {
		if ls := nw.portFault[int(cur)*topology.NumPorts+int(p)]; ls != nil && ls.Cut(now) {
			continue
		}
		keep = append(keep, p)
	}
	if len(keep) == 0 {
		return ports
	}
	return keep
}

// WatchdogWindow returns the default no-progress window for this network:
// four maximally backed-off retransmission intervals, so a lone in-flight
// retry waiting out its backoff is never mistaken for a stall.
func (nw *Network) WatchdogWindow() int64 {
	fc := nw.cfg.Faults
	return 4 * (fc.EffectiveRetryTimeout() << fc.EffectiveRetryCap())
}

// Watchdog builds a stall watchdog for this network: progress is the sum
// of the monotonic movement counters (flits carried, credits returned,
// packets injected — retransmissions count, so a fabric still retrying is
// not stalled), and the diagnostic enumerates where traffic is stuck.
// window <= 0 selects WatchdogWindow. Arm it with
// Engine().SetWatchdog(nw.Watchdog(0)).
func (nw *Network) Watchdog(window int64) *sim.Watchdog {
	if window <= 0 {
		window = nw.WatchdogWindow()
	}
	return &sim.Watchdog{
		Window:   window,
		Progress: nw.progressCount,
		Diagnose: nw.stallDiagnostic,
	}
}

// progressCount sums the fabric's monotonic movement counters. Called by
// the engine between steps (no phase running), so the reads are safe.
func (nw *Network) progressCount() uint64 {
	var n uint64
	for _, l := range nw.links {
		n += l.FlitsCarried.Value() + l.CreditsCarried.Value()
	}
	for _, nc := range nw.nics {
		n += nc.PacketsInjected.Value()
	}
	return n
}

// stallDiagnostic renders the structured no-progress report: stuck flits
// per router, starving collective stations, NICs with undeliverable
// payloads, sink backlogs and the fault counters — everything needed to
// see what wedged without re-running under a debugger. When telemetry is
// on, an EvStall event is also emitted so the stall lands in the exported
// trace next to the fault events that caused it.
func (nw *Network) stallDiagnostic(cycle int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "in-flight flits: %d\n", nw.InFlight())
	listed := 0
	for _, r := range nw.routers {
		buf, gb, rb := r.BufferedFlits(), r.Backlog(reduce.GatherStation), r.Backlog(reduce.ReduceStation)
		if buf == 0 && gb == 0 && rb == 0 {
			continue
		}
		if listed < 16 {
			fmt.Fprintf(&b, "  router %d: %d buffered flits, %d gather payloads, %d reduce operands waiting\n",
				r.ID(), buf, gb, rb)
		}
		listed++
	}
	if listed > 16 {
		fmt.Fprintf(&b, "  ... and %d more routers with stuck traffic\n", listed-16)
	}
	listed = 0
	for _, n := range nw.nics {
		if !n.Pending() {
			continue
		}
		if listed < 16 {
			fmt.Fprintf(&b, "  nic %d: queue %d, %d unconfirmed payloads, %d retransmits, %d abandoned\n",
				n.ID(), n.QueueDepth(), n.ReliablePending(),
				n.Retransmits.Value(), n.AbandonedPayloads.Value())
		}
		listed++
	}
	if listed > 16 {
		fmt.Fprintf(&b, "  ... and %d more NICs with work pending\n", listed-16)
	}
	for _, s := range nw.sinks {
		if s.ej.Buffered() > 0 || s.ej.PendingPackets() > 0 {
			fmt.Fprintf(&b, "  sink %d: %d buffered flits, %d partial packets\n",
				s.row, s.ej.Buffered(), s.ej.PendingPackets())
		}
	}
	if nw.injector != nil {
		fmt.Fprintf(&b, "fault totals: %d flits dropped, %d packets corrupted\n",
			nw.injector.Drops(), nw.injector.Corrupts())
	}
	if nw.tele != nil && nw.tele.Tracing() {
		nw.tele.SerialProbe().Emit(telemetry.Event{
			Cycle: cycle, Kind: telemetry.EvStall, Aux: int64(nw.InFlight()),
		})
	}
	return strings.TrimRight(b.String(), "\n")
}
