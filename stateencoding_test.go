package gathernoc

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/collective"
	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/router"
	"gathernoc/internal/sim"
	"gathernoc/internal/systolic"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// The classes of a component field: how its AppendState and LoadState
// (flit.Encoder, flit.Decoder) treat it.
const (
	// both: written in absolute and relative mode. Relative mode rebases
	// cycles and renames identifiers (flit.Encoder); a note says which.
	both = "both"
	// absolute: written in absolute mode only (checkpoint, fork, reset);
	// the periodicity proof's relative mode leaves it out.
	absolute = "absolute"
	// derived: not written; LoadState recomputes it from what is.
	derived = "derived"
	// fixed: not written; construction, wiring or configuration sets it,
	// and a state is only ever loaded onto a network built alike.
	fixed = "fixed"
)

const (
	statistic = ": a statistic, which no decision reads"
	faultOnly = ": present only on faulted fabrics, which noc.Network.Bare refuses"
	rebased   = " (rebased)"
	renamed   = " (renamed)"
	until     = " (rebased, as a cycle waited until)"
	wiring    = ": wiring"
	capacity  = ": capacity, not state"
)

// stateFields classifies every field of every component struct, keyed
// "package.Type.field". TestStateEncodingClassifiesEveryField fails on a
// field missing here, so a field added to a component must be written by
// its AppendState and read by its LoadState, or argued out.
var stateFields = map[string]string{
	"router.Router.id":          fixed,
	"router.Router.cfg":         fixed,
	"router.Router.route":       fixed + wiring,
	"router.Router.vcs":         both + " (VCs at rest as the occupancy, VA and active masks)",
	"router.Router.slots":       both + " (as each busy VC's buffered flits)",
	"router.Router.outVCs":      both + " (of the wired outputs)",
	"router.Router.outLinks":    fixed + wiring,
	"router.Router.inLinks":     fixed + wiring,
	"router.Router.outDepth":    fixed,
	"router.Router.saInputArb":  both,
	"router.Router.saOutputArb": both,
	"router.Router.nv":          fixed,
	"router.Router.depth":       fixed,
	"router.Router.buffered":    derived,
	"router.Router.loads":       derived,
	"router.Router.vaPending":   derived,
	"router.Router.active":      derived,
	"router.Router.occMask":     derived,
	"router.Router.vaMask":      derived,
	"router.Router.actMask":     derived,
	"router.Router.loadMask":    derived,
	"router.Router.pool":        fixed + wiring,
	"router.Router.wake":        fixed + ": the engine's; a restore wakes every component",
	"router.Router.cold":        both + " (its stations and sets)",
	"router.Router.probe":       fixed + ": telemetry, which snapshots refuse",
	"router.Router.clockTies":   absolute + statistic + " (the proof reads its growth, noc.Network.ClockTies)",
	"router.Router.Counters":    absolute + statistic,

	"router.routerCold.views":    fixed + wiring,
	"router.routerCold.stations": both,
	"router.routerCold.sets":     both + " (as each branch's destination and head sets)",

	"router.vcSets.slot": both + " (as the VC whose branches it belongs to)",
	"router.vcSets.dsts": both + " (as each branch's destination set, and its head set on a multicast packet)",

	"router.inputVC.buf":   both + " (as the occupancy and the buffered flits)",
	"router.inputVC.stage": both,
	"router.inputVC.wait":  both,
	"router.inputVC.class": both + " (at rest not written: route computation rewrites it before VA reads it)",
	"router.inputVC.flags": both + " (the Loads as their entry indices, the sets as each branch's destination and head sets)",
	"router.inputVC.nbr":   both,
	"router.inputVC.br":    both,

	"router.branchState.out":  both,
	"router.branchState.vc":   both,
	"router.branchState.sent": both,

	"router.outVC.credits":   both,
	"router.outVC.ownerPort": both + " (while a VC is in VA or active; otherwise every one is free)",
	"router.outVC.ownerVC":   both + " (while a VC is in VA or active; otherwise every one is free)",

	"router.rrArbiter.n":    fixed,
	"router.rrArbiter.next": both,

	"reduce.Station.entries": both,
	"reduce.Station.spares":  fixed + capacity,
	"reduce.Station.cap":     fixed,
	"reduce.Station.owner":   fixed + wiring + ": the local NIC, which every entry is acked to",
	"reduce.Station.kind":    fixed,
	"reduce.entry.operand":   both,
	"reduce.entry.state":     both,
	"reduce.entry.holder":    both + " (as the entry index the holding VC writes)",

	"flit.Payload.Seq":        both + renamed,
	"flit.Payload.Src":        both,
	"flit.Payload.Dst":        both,
	"flit.Payload.Bits":       both,
	"flit.Payload.Value":      absolute + ": data: accumulate merges add it up, nothing branches on it",
	"flit.Payload.ReadyCycle": both + rebased,
	"flit.Payload.ReduceID":   both + renamed + ": its round index changes every round; merges compare whole ids",
	"flit.Payload.Ops":        both,

	"flit.Flit.Type":          both,
	"flit.Flit.PT":            both,
	"flit.Flit.PacketID":      both + renamed,
	"flit.Flit.Tag":           both,
	"flit.Flit.Seq":           both,
	"flit.Flit.PacketFlits":   both,
	"flit.Flit.Src":           both,
	"flit.Flit.Dst":           both,
	"flit.Flit.MDst":          both,
	"flit.Flit.ASpace":        both,
	"flit.Flit.ReduceID":      both + renamed,
	"flit.Flit.SlotCap":       both,
	"flit.Flit.Payloads":      both,
	"flit.Flit.Corrupted":     both,
	"flit.Flit.TrackOperands": both,
	"flit.Flit.InjectCycle":   both + rebased,
	"flit.Flit.NetworkCycle":  both + rebased,
	"flit.Flit.Hops":          both,

	"flit.Packet.ID":             both + renamed,
	"flit.Packet.Tag":            both,
	"flit.Packet.PT":             both,
	"flit.Packet.Src":            both,
	"flit.Packet.Dst":            both,
	"flit.Packet.MDst":           both,
	"flit.Packet.Flits":          both,
	"flit.Packet.GatherCapacity": both,
	"flit.Packet.ReduceID":       both + renamed,
	"flit.Packet.Carried":        derived + ": nil in the side table, whose parcel holds the payload; a rebuilt packet points at it",
	"flit.Packet.TrackOperands":  both,
	"flit.Packet.InjectCycle":    both + rebased,

	"link.Link.name":                 fixed,
	"link.Link.latency":              fixed,
	"link.Link.down":                 fixed + wiring,
	"link.Link.up":                   fixed + wiring,
	"link.Link.flits":                both,
	"link.Link.credits":              both,
	"link.Link.flitWake":             fixed + ": the engine's; a restore wakes every component",
	"link.Link.creditWake":           fixed + ": the engine's; a restore wakes every component",
	"link.Link.probe":                fixed + ": telemetry, which snapshots refuse",
	"link.Link.loc":                  fixed,
	"link.Link.faults":               absolute + faultOnly,
	"link.CreditFlusher.l":           fixed + wiring,
	"link.CreditFlusher.ls":          absolute + faultOnly,
	"link.CreditFlusher.pool":        fixed + wiring,
	"link.CreditFlusher.owedCredits": absolute + faultOnly,
	"link.CreditFlusher.owedAny":     derived,
	"link.CreditFlusher.wake":        fixed + ": the engine's; a restore wakes every component",
	"link.Link.FlitsCarried":         absolute + statistic,
	"link.Link.CreditsCarried":       absolute + statistic,
	"link.inflightFlit.f":            both,
	"link.inflightFlit.vc":           both,
	"link.inflightFlit.due":          both + rebased,
	"link.inflightCredit.vc":         both,
	"link.inflightCredit.due":        both + rebased,

	"fault.LinkState.salt":     fixed + ": the configuration's",
	"fault.LinkState.dropT":    fixed + ": the configuration's",
	"fault.LinkState.corruptT": fixed + ": the configuration's",
	"fault.LinkState.windows":  fixed + ": the configuration's",
	"fault.LinkState.doomed":   absolute + faultOnly,
	"fault.LinkState.Drops":    absolute + faultOnly,
	"fault.LinkState.Corrupts": absolute + faultOnly,

	"nic.NIC.id":                   fixed,
	"nic.NIC.cfg":                  fixed,
	"nic.NIC.rtr":                  fixed + wiring,
	"nic.NIC.out":                  fixed + wiring,
	"nic.NIC.eject":                both,
	"nic.NIC.nextID":               fixed + ": draws on the network's packet-id counters, which a Snapshot carries",
	"nic.NIC.credits":              both,
	"nic.NIC.vcPkt":                both + " (the flits not yet sent)",
	"nic.NIC.queue":                both + " (each entry as its whole packet)",
	"nic.NIC.rare":                 both + ": the whole packets of the queue entries that index it, with their payloads, written in queue order",
	"nic.NIC.spare":                derived + ": the side table's free slots, refilled as a load empties the queue",
	"nic.NIC.waits":                both,
	"nic.NIC.sweepAt":              derived + ": the first tick's sweep books the loaded deadlines",
	"nic.NIC.sendRR":               both,
	"nic.NIC.fed":                  derived + ": whether work came in since the latest load, which clears it (noc.Network.Release keeps a fabric no NIC of which was fed)",
	"nic.NIC.streaming":            derived,
	"nic.NIC.pool":                 fixed + wiring,
	"nic.NIC.delta":                fixed + ": the δ override Submit arms before every offer (noc.Network.AppendState)",
	"nic.NIC.now":                  both + until + ": a tick rewrites it before any read",
	"nic.NIC.clock":                fixed + wiring,
	"nic.NIC.wake":                 fixed + ": the engine's; a restore wakes every component",
	"nic.NIC.reliable":             absolute + faultOnly,
	"nic.NIC.probe":                fixed + ": telemetry, which snapshots refuse",
	"nic.NIC.PacketsInjected":      absolute + statistic,
	"nic.NIC.FlitsInjected":        absolute + statistic,
	"nic.NIC.SelfInitiatedGathers": absolute + statistic,
	"nic.NIC.PiggybackAcks":        absolute + statistic,
	"nic.NIC.SelfInitiatedReduces": absolute + statistic,
	"nic.NIC.MergeAcks":            absolute + statistic,
	"nic.NIC.Retransmits":          absolute + statistic,
	"nic.NIC.AbandonedPayloads":    absolute + statistic,

	"nic.vcStream.flits": both + " (from next on)",
	"nic.vcStream.next":  derived + ": a loaded stream starts at its first unsent flit",

	"nic.gatherWait.payload":  both,
	"nic.gatherWait.deadline": both + until,
	"nic.gatherWait.acked":    both,
	"nic.gatherWait.tag":      both,

	"nic.reliableTable.entries":    absolute + faultOnly,
	"nic.reliableTable.base":       fixed + ": the configuration's",
	"nic.reliableTable.backoffCap": fixed + ": the configuration's",
	"nic.reliableTable.maxRetries": fixed + ": the configuration's",
	"nic.reliableEntry.payload":    absolute + faultOnly,
	"nic.reliableEntry.tag":        absolute + faultOnly,
	"nic.reliableEntry.deadline":   absolute + faultOnly,
	"nic.reliableEntry.attempt":    absolute + faultOnly,

	"nic.Ejector.name":                 fixed,
	"nic.Ejector.owner":                fixed,
	"nic.Ejector.vcs":                  fixed,
	"nic.Ejector.depth":                fixed,
	"nic.Ejector.drainRate":            fixed,
	"nic.Ejector.bufs":                 both + " (as each VC's occupancy)",
	"nic.Ejector.slots":                both + " (as each VC's buffered flits)",
	"nic.Ejector.reverse":              fixed + wiring,
	"nic.Ejector.partial":              both,
	"nic.Ejector.shared":               fixed + ": the slab's buffer handed to the receive callback, and its first-use arenas" + capacity,
	"nic.Ejector.pool":                 fixed + wiring,
	"nic.Ejector.recv":                 fixed + ": the workload's callback",
	"nic.Ejector.drainRR":              both,
	"nic.Ejector.wake":                 fixed + ": the engine's; a restore wakes every component",
	"nic.Ejector.probe":                fixed + ": telemetry, which snapshots refuse",
	"nic.Ejector.probeLoc":             fixed,
	"nic.Ejector.packetOverhead":       fixed,
	"nic.Ejector.pausedUntil":          both + until,
	"nic.Ejector.dispatcher":           fixed + wiring,
	"nic.Ejector.stagedPkt":            fixed + capacity + ": drained every cycle, empty at every boundary",
	"nic.Ejector.stagedPay":            fixed + capacity + ": drained every cycle, empty at every boundary",
	"nic.Ejector.seen":                 absolute + faultOnly,
	"nic.Ejector.delivered":            absolute + faultOnly,
	"nic.Ejector.hub":                  fixed + wiring,
	"nic.Ejector.faultAware":           fixed + wiring,
	"nic.Ejector.FlitsEjected":         absolute + statistic,
	"nic.Ejector.PacketsEjected":       absolute + statistic,
	"nic.Ejector.PacketsDiscarded":     absolute + statistic,
	"nic.Ejector.DuplicatesSuppressed": absolute + statistic,
	"nic.DeliveredPayload.Seq":         absolute + faultOnly,
	"nic.DeliveredPayload.Src":         absolute + faultOnly,

	"nic.queued.id":     both + renamed,
	"nic.queued.inject": both + rebased,
	"nic.queued.dst":    both,
	"nic.queued.tag":    both,
	"nic.queued.flits":  both,
	"nic.queued.pt":     both,
	"nic.queued.track":  both,
	"nic.queued.rare":   derived + ": the entry's slot in the side table, taken as the load queues it",

	"nic.parcel.pkt":     both + " (the queued packet)",
	"nic.parcel.own":     both + " (as the packet's carried payload)",
	"nic.parcel.carries": both + " (as whether the packet carries one)",

	"nic.partialPacket.id":           both + renamed,
	"nic.partialPacket.tag":          both,
	"nic.partialPacket.pt":           both,
	"nic.partialPacket.src":          both,
	"nic.partialPacket.dst":          both,
	"nic.partialPacket.flits":        both,
	"nic.partialPacket.injectCycle":  both + rebased,
	"nic.partialPacket.networkCycle": both + rebased,
	"nic.partialPacket.hops":         both,
	"nic.partialPacket.headArrival":  both + rebased,
	"nic.partialPacket.corrupted":    both,
	"nic.partialPacket.payloads":     both,

	"traffic.Generator.nw":        fixed + wiring,
	"traffic.Generator.cfg":       fixed,
	"traffic.Generator.rng":       derived + ": draws from src",
	"traffic.Generator.src":       absolute + ": a generator is never in the proof",
	"traffic.Generator.tag":       fixed + ": the scheduler's",
	"traffic.Generator.base":      absolute + ": a generator is never in the proof",
	"traffic.Generator.injecting": absolute + ": a generator is never in the proof",
	"traffic.Generator.injected":  absolute + ": a generator is never in the proof",
	"traffic.Generator.received":  absolute + ": a generator is never in the proof",
	"traffic.Generator.sent":      absolute + ": a generator is never in the proof",
	"traffic.Generator.delivered": absolute + ": a generator is never in the proof",
	"traffic.Generator.res":       absolute + ": a generator is never in the proof",

	"traffic.countingSource.src":   derived + ": re-seeded and advanced by the draw count",
	"traffic.countingSource.draws": absolute + ": a generator is never in the proof",

	"traffic.GeneratorResult.Injected":       derived + ": Result sets it",
	"traffic.GeneratorResult.Received":       derived + ": Result sets it",
	"traffic.GeneratorResult.Latency":        absolute + statistic,
	"traffic.GeneratorResult.QueueLatency":   absolute + statistic,
	"traffic.GeneratorResult.NetworkLatency": absolute + statistic,
	"traffic.GeneratorResult.Hops":           absolute + statistic,
	"traffic.GeneratorResult.Cycles":         derived + ": Result sets it",
	"traffic.GeneratorResult.Throughput":     derived + ": Result sets it",
}

// fieldKey names a struct field as stateFields does.
func fieldKey(t reflect.Type, f reflect.StructField) string {
	pkg := t.PkgPath()
	name := t.Name()
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // a generic type's arguments
	}
	return pkg[strings.LastIndex(pkg, "/")+1:] + "." + name + "." + f.Name
}

// componentStruct reports the component struct a field's values are (or
// hold, through pointers, slices, arrays and the ring containers), or nil
// for a leaf. Statistics, destination sets and the router's Counters are
// leaves.
func componentStruct(t reflect.Type) reflect.Type {
	for {
		switch {
		case t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array:
			t = t.Elem()
		case t.Kind() == reflect.Struct && t.PkgPath() == "gathernoc/internal/ring":
			t = t.Field(0).Type // the backing slice: Ring.buf, Deque.blocks
		default:
			if t.Kind() != reflect.Struct || !strings.HasPrefix(t.PkgPath(), "gathernoc/internal/") ||
				t.PkgPath() == "gathernoc/internal/stats" || t.PkgPath() == "gathernoc/internal/topology" ||
				t == reflect.TypeOf(router.Counters{}) {
				return nil
			}
			return t
		}
	}
}

// componentFields walks every component struct and the structs its
// written fields hold, and returns their fields by stateFields key. A field
// not written (derived or fixed) is not walked into.
func componentFields() map[string]bool {
	fields := map[string]bool{}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(st reflect.Type) {
		if seen[st] {
			return
		}
		seen[st] = true
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			key := fieldKey(st, f)
			fields[key] = true
			class := stateFields[key]
			if sub := componentStruct(f.Type); sub != nil && (strings.HasPrefix(class, both) || strings.HasPrefix(class, absolute)) {
				walk(sub)
			}
		}
	}
	for _, c := range []any{router.Router{}, link.Link{}, nic.NIC{}, nic.Ejector{}, reduce.Station{},
		flit.Flit{}, fault.LinkState{}, traffic.Generator{}} {
		walk(reflect.TypeOf(c))
	}
	return fields
}

// TestStateEncodingClassifiesEveryField walks every component struct and
// requires each field to be classified in stateFields as written in both
// modes, in absolute mode only, derived, or fixed by construction, in the
// manner of TestConfigHashCoversEveryField: a field added to a component
// must be written by its AppendState and read by its LoadState, or argued
// out here. A classification naming no field fails too.
func TestStateEncodingClassifiesEveryField(t *testing.T) {
	fields := componentFields()
	var missing []string
	for key := range fields {
		class, ok := stateFields[key]
		switch {
		case !ok:
			missing = append(missing, key)
		case !strings.HasPrefix(class, both) && !strings.HasPrefix(class, absolute) &&
			!strings.HasPrefix(class, derived) && !strings.HasPrefix(class, fixed):
			t.Errorf("%s is classified %q, not one of the four classes", key, class)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("component field %s is not classified: write it in its AppendState and read it in its LoadState, or argue it out", key)
	}
	for key := range stateFields {
		if !fields[key] {
			t.Errorf("stateFields classifies %s, which no component struct has", key)
		}
	}
}

// busyState is a fabric captured mid-run: its absolute encoding, in a
// Snapshot, and its relative one, as the boundary after an open at the
// snapshot's cycle less one.
type busyState struct {
	snap     *noc.Snapshot
	relative []byte
}

// busyStates captures the fabric mid-run under five workloads that between
// them fill every kind of state a fabric has: a gather layer with staggered
// PEs (stations, δ waits, flits on links and in buffers, packets under
// reassembly at the sinks), an INA accumulation (reduce stations and
// waits), a tree broadcast (multicast destination sets and branches),
// saturating uniform traffic (injection queues, reassembly at the NICs),
// with a multicast carrying a payload queued besides, which no workload
// queues, and the same traffic on a lossy fabric (doomed packets, owed
// credits, retransmission tables, dedup sets).
func busyStates(t *testing.T) []busyState {
	t.Helper()
	layer, _ := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv1")
	type driver interface {
		workload.Driver
		workload.PacketSink
		SetWake(*sim.Handle)
	}
	alone := func(d driver, err error) func(*noc.Network) {
		return func(nw *noc.Network) {
			if err != nil {
				t.Fatal(err)
			}
			nw.OnReceive(d.OnPacket)
			d.Start(0)
			d.SetWake(nw.Engine().AddTicker(d))
		}
	}
	uniform := func(nw *noc.Network) {
		gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
			Pattern: traffic.UniformRandom{Nodes: nw.Topology().NumNodes()}, InjectionRate: 0.3,
			PacketFlits: 3, Measure: 1 << 40, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		nw.Engine().AddTicker(gen)
	}
	runs := []struct {
		ina, lossy bool
		at         int64
		setup      func(*noc.Network)
	}{
		{false, false, 380, func(nw *noc.Network) {
			alone(systolic.NewController(nw, systolic.Config{Layer: layer, Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 1, SkewPerHop: 2}))(nw)
		}},
		{true, false, 30, func(nw *noc.Network) {
			alone(traffic.NewAccumulationController(nw, traffic.AccumulationConfig{Scheme: traffic.CollectINA, Rounds: 1, ComputeLatency: 20}))(nw)
		}},
		{false, false, 16, func(nw *noc.Network) {
			alone(collective.NewDriver(nw, collective.Config{Op: collective.Broadcast, Algorithm: collective.AlgTree, Rounds: 1, ComputeLatency: 10}))(nw)
		}},
		{false, false, 150, uniform},
		{false, true, 150, uniform},
	}
	var states []busyState
	for i, r := range runs {
		cfg := noc.DefaultConfig(8, 8)
		cfg.EnableINA = r.ina
		if r.lossy {
			cfg.Faults = &fault.Config{Seed: 3, DropRate: 0.05, CorruptRate: 0.02}
		}
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.setup(nw)
		nw.Engine().RunUntil(never, r.at)
		if i == 3 {
			nw.NIC(0).SendMulticastPayload(0, topology.DestSetOf(64, 1, 2), 2, flit.Payload{Seq: 1 << 40, Dst: 2, Bits: 32, Value: 9})
		}
		s, err := nw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, busyState{s, nw.AppendState(nil, s.Cycle-1)})
		nw.Close()
	}
	return states
}

// TestStateEncodingRoundTrip loads the absolute encoding A of each busy
// state onto a new network, whose absolute encoding must then be A again
// and whose relative encoding must be the captured fabric's: LoadState
// reads back everything AppendState writes, in both modes.
func TestStateEncodingRoundTrip(t *testing.T) {
	for i, b := range busyStates(t) {
		nw, err := noc.New(b.snap.Config)
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Restore(b.snap); err != nil {
			t.Fatalf("state %d does not restore: %v", i, err)
		}
		again, err := nw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.State, b.snap.State) {
			t.Errorf("state %d: the loaded fabric's absolute encoding differs (%d bytes, want %d)", i, len(again.State), len(b.snap.State))
		}
		if rel := nw.AppendState(nil, b.snap.Cycle-1); !bytes.Equal(rel, b.relative) {
			t.Errorf("state %d: the loaded fabric's relative encoding differs (%d bytes, want %d)", i, len(rel), len(b.relative))
		}
		nw.Close()
	}
}
