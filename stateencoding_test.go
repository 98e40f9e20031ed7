package gathernoc

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/collective"
	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/router"
	"gathernoc/internal/sim"
	"gathernoc/internal/systolic"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// How noc.Network.AppendState, the periodicity proof's encoding, treats a
// field of the snapshot layer.
const (
	// encoded: written as it is (a container: its elements are).
	encoded = "encoded"
	// rebased: an absolute cycle, written relative to the round's open.
	rebased = "rebased"
	// renamed: an identifier, written as the order of its first appearance.
	renamed = "renamed"
)

// excluded marks a field the encoding leaves out, for the reason given.
func excluded(reason string) string { return "excluded: " + reason }

const (
	statistic = "a statistic, which no decision reads"
	faultOnly = "present only on faulted fabrics, which noc.Network.Bare refuses"
)

// stateFields classifies every field of every struct a noc.Snapshot
// carries, keyed "package.Type.Field". TestStateEncodingClassifiesEveryField
// fails on a field missing here, so a field added to a snapshot must be
// encoded or argued out of the proof.
var stateFields = map[string]string{
	"noc.Snapshot.Version":    excluded("the envelope's format, not state"),
	"noc.Snapshot.ConfigHash": excluded("the fabric's identity: encodings are compared on one network"),
	"noc.Snapshot.Config":     excluded("the fabric's identity: encodings are compared on one network"),
	"noc.Snapshot.Cycle":      excluded("the engine clock, base plus one at the boundary after an open"),
	"noc.Snapshot.PidSeq":     excluded("packet ids are renamed, and a NIC's next id equals no live one"),
	"noc.Snapshot.Routers":    encoded,
	"noc.Snapshot.Links":      encoded,
	"noc.Snapshot.NICs":       encoded,
	"noc.Snapshot.Sinks":      encoded,

	"router.State.Inputs":        encoded + " (VCs at rest as the occupancy, VA and active masks)",
	"router.State.Outputs":       encoded,
	"router.State.GatherStation": encoded,
	"router.State.ReduceStation": encoded,
	"router.State.SAInputNext":   encoded,
	"router.State.SAOutputNext":  encoded,
	"router.State.Counters":      excluded(statistic),

	"router.VCSnapshot.Flits":       encoded,
	"router.VCSnapshot.Stage":       encoded,
	"router.VCSnapshot.Wait":        encoded,
	"router.VCSnapshot.Branches":    encoded,
	"router.VCSnapshot.VCClass":     encoded + " (at rest, route computation rewrites it before VA reads it)",
	"router.VCSnapshot.GatherEntry": encoded,
	"router.VCSnapshot.ReduceEntry": encoded,

	"router.BranchSnapshot.Out":       encoded,
	"router.BranchSnapshot.HasDsts":   encoded,
	"router.BranchSnapshot.Dsts":      encoded,
	"router.BranchSnapshot.VC":        encoded,
	"router.BranchSnapshot.Sent":      encoded,
	"router.BranchSnapshot.HasHeadMD": encoded,
	"router.BranchSnapshot.HeadMD":    encoded,

	"router.OutputSnapshot.Credits":   encoded,
	"router.OutputSnapshot.OwnerPort": encoded + " (while a VC is in VA or active; otherwise every one is free)",
	"router.OutputSnapshot.OwnerVC":   encoded + " (while a VC is in VA or active; otherwise every one is free)",

	"reduce.EntrySnapshot.Operand":  encoded,
	"reduce.EntrySnapshot.Reserved": encoded,

	"flit.Payload.Seq":        renamed,
	"flit.Payload.Src":        encoded,
	"flit.Payload.Dst":        encoded,
	"flit.Payload.Bits":       encoded,
	"flit.Payload.Value":      excluded("data: accumulate merges add it up, nothing branches on it, the systolic controller never reads it"),
	"flit.Payload.ReadyCycle": rebased,
	"flit.Payload.ReduceID":   renamed + " (its round index changes every round; merges compare whole ids)",
	"flit.Payload.Ops":        encoded,

	"flit.State.Type":          encoded,
	"flit.State.PT":            encoded,
	"flit.State.PacketID":      renamed,
	"flit.State.Tag":           encoded,
	"flit.State.Seq":           encoded,
	"flit.State.PacketFlits":   encoded,
	"flit.State.Src":           encoded,
	"flit.State.Dst":           encoded,
	"flit.State.MDst":          encoded,
	"flit.State.ASpace":        encoded,
	"flit.State.ReduceID":      renamed,
	"flit.State.SlotCap":       encoded,
	"flit.State.Payloads":      encoded,
	"flit.State.Corrupted":     encoded,
	"flit.State.TrackOperands": encoded,
	"flit.State.InjectCycle":   rebased,
	"flit.State.NetworkCycle":  rebased,
	"flit.State.Hops":          encoded,

	"link.State.Flits":          encoded,
	"link.State.Credits":        encoded,
	"link.State.OwedCredits":    excluded(faultOnly),
	"link.State.FlitsCarried":   excluded(statistic),
	"link.State.CreditsCarried": excluded(statistic),
	"link.State.Faults":         excluded(faultOnly),
	"link.InflightFlit.Flit":    encoded,
	"link.InflightFlit.VC":      encoded,
	"link.InflightFlit.Due":     rebased,
	"link.InflightCredit.VC":    encoded,
	"link.InflightCredit.Due":   rebased,

	"fault.LinkSnapshot.Doomed":   excluded(faultOnly),
	"fault.LinkSnapshot.Drops":    excluded(faultOnly),
	"fault.LinkSnapshot.Corrupts": excluded(faultOnly),

	"nic.State.Credits":              encoded,
	"nic.State.Streams":              encoded,
	"nic.State.Queue":                encoded,
	"nic.State.Waiting":              encoded,
	"nic.State.RWaiting":             encoded,
	"nic.State.SendRR":               encoded,
	"nic.State.Now":                  rebased + " (as a cycle it waits until: a tick rewrites it before any read)",
	"nic.State.Reliable":             excluded(faultOnly),
	"nic.State.PacketsInjected":      excluded(statistic),
	"nic.State.FlitsInjected":        excluded(statistic),
	"nic.State.SelfInitiatedGathers": excluded(statistic),
	"nic.State.PiggybackAcks":        excluded(statistic),
	"nic.State.SelfInitiatedReduces": excluded(statistic),
	"nic.State.MergeAcks":            excluded(statistic),
	"nic.State.Retransmits":          excluded(statistic),
	"nic.State.AbandonedPayloads":    excluded(statistic),
	"nic.State.Ejector":              encoded,

	"nic.PacketState.ID":             renamed,
	"nic.PacketState.Tag":            encoded,
	"nic.PacketState.PT":             encoded,
	"nic.PacketState.Src":            encoded,
	"nic.PacketState.Dst":            encoded,
	"nic.PacketState.HasMDst":        encoded,
	"nic.PacketState.MDst":           encoded,
	"nic.PacketState.Flits":          encoded,
	"nic.PacketState.GatherCapacity": encoded,
	"nic.PacketState.ReduceID":       renamed,
	"nic.PacketState.HasCarried":     encoded,
	"nic.PacketState.Carried":        encoded,
	"nic.PacketState.TrackOperands":  encoded,
	"nic.PacketState.InjectCycle":    rebased,

	"nic.WaitState.Payload":  encoded,
	"nic.WaitState.Deadline": rebased + " (as a cycle it waits until)",
	"nic.WaitState.Acked":    encoded,
	"nic.WaitState.Tag":      encoded,

	"nic.ReliableEntryState.Payload":  excluded(faultOnly),
	"nic.ReliableEntryState.Tag":      excluded(faultOnly),
	"nic.ReliableEntryState.Deadline": excluded(faultOnly),
	"nic.ReliableEntryState.Attempt":  excluded(faultOnly),

	"nic.EjectorState.Bufs":                 encoded,
	"nic.EjectorState.Partials":             encoded,
	"nic.EjectorState.DrainRR":              encoded,
	"nic.EjectorState.PausedUntil":          rebased + " (as a cycle it waits until)",
	"nic.EjectorState.Seen":                 excluded(faultOnly),
	"nic.EjectorState.Delivered":            excluded(faultOnly),
	"nic.EjectorState.FlitsEjected":         excluded(statistic),
	"nic.EjectorState.PacketsEjected":       excluded(statistic),
	"nic.EjectorState.PacketLatency":        excluded(statistic),
	"nic.EjectorState.PacketsDiscarded":     excluded(statistic),
	"nic.EjectorState.DuplicatesSuppressed": excluded(statistic),
	"nic.DeliveredPayload.Seq":              excluded(faultOnly),
	"nic.DeliveredPayload.Src":              excluded(faultOnly),

	"nic.PartialState.ID":           renamed,
	"nic.PartialState.Tag":          encoded,
	"nic.PartialState.PT":           encoded,
	"nic.PartialState.Src":          encoded,
	"nic.PartialState.Dst":          encoded,
	"nic.PartialState.Flits":        encoded,
	"nic.PartialState.InjectCycle":  rebased,
	"nic.PartialState.NetworkCycle": rebased,
	"nic.PartialState.Hops":         encoded,
	"nic.PartialState.HeadArrival":  rebased,
	"nic.PartialState.Corrupted":    encoded,
	"nic.PartialState.Payloads":     encoded,
}

// fieldKey names a struct field as stateFields does.
func fieldKey(t reflect.Type, f reflect.StructField) string {
	pkg := t.PkgPath()
	return pkg[strings.LastIndex(pkg, "/")+1:] + "." + t.Name() + "." + f.Name
}

// stateStruct reports the snapshot-layer struct a field's values are (or
// hold, through slices and pointers), or nil for a leaf. Statistics and
// the network configuration are leaves: they are not snapshot state.
func stateStruct(t reflect.Type) reflect.Type {
	for t.Kind() == reflect.Slice || t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || !strings.HasPrefix(t.PkgPath(), "gathernoc/internal/") ||
		t.PkgPath() == "gathernoc/internal/stats" ||
		t == reflect.TypeOf(router.Counters{}) || t == reflect.TypeOf(noc.Config{}) {
		return nil
	}
	return t
}

// snapshotFields walks every struct a noc.Snapshot carries and returns its
// fields by stateFields key.
func snapshotFields() map[string]reflect.StructField {
	fields := map[string]reflect.StructField{}
	var walk func(reflect.Type)
	walk = func(st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			key := fieldKey(st, f)
			if _, ok := fields[key]; ok {
				continue
			}
			fields[key] = f
			if sub := stateStruct(f.Type); sub != nil {
				walk(sub)
			}
		}
	}
	walk(reflect.TypeOf(noc.Snapshot{}))
	return fields
}

// TestStateEncodingClassifiesEveryField walks every struct a noc.Snapshot
// carries and requires each field to be classified in stateFields as
// encoded, rebased, renamed or excluded with a reason, in the manner of
// TestConfigHashCoversEveryField: a field added to the snapshot layer must
// be encoded by its component's AppendState or argued out here. A
// classification naming no field fails too.
func TestStateEncodingClassifiesEveryField(t *testing.T) {
	fields := snapshotFields()
	for key := range fields {
		if _, ok := stateFields[key]; !ok {
			t.Errorf("snapshot field %s is not classified: encode it in its component's AppendState or exclude it with a reason", key)
		}
	}
	for key := range stateFields {
		if _, ok := fields[key]; !ok {
			t.Errorf("stateFields classifies %s, which no snapshot struct has", key)
		}
	}
}

// step is one move from a value to a part of it: a struct field or a
// slice element.
type step struct {
	field bool
	i     int
}

// occurrence is one leaf value in a snapshot: where it is and its field.
type occurrence struct {
	key  string
	path []step
}

// leafOccurrences lists, in walk order, every encoded or rebased leaf of v.
func leafOccurrences(v reflect.Value, path []step, out *[]occurrence) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			leafOccurrences(v.Elem(), path, out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leafOccurrences(v.Index(i), append(path[:len(path):len(path)], step{i: i}), out)
		}
	case reflect.Struct:
		st := v.Type()
		if vc, ok := v.Interface().(router.VCSnapshot); ok && len(vc.Flits) == 0 && vc.Stage == 0 {
			return // at rest: the encoding writes it as a mask bit
		}
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			class := stateFields[fieldKey(st, f)]
			if !strings.HasPrefix(class, encoded) && !strings.HasPrefix(class, rebased) {
				continue
			}
			p := append(path[:len(path):len(path)], step{field: true, i: i})
			if stateStruct(f.Type) != nil {
				leafOccurrences(v.Field(i), p, out)
				continue
			}
			fv := v.Field(i)
			if fv.Kind() == reflect.Slice {
				// A list of scalars (credits, destination members): its
				// first element stands for the field.
				if fv.Len() > 0 {
					*out = append(*out, occurrence{fieldKey(st, f), append(p, step{i: 0})})
				}
				continue
			}
			*out = append(*out, occurrence{fieldKey(st, f), p})
		}
	}
}

// at follows path from v.
func at(v reflect.Value, path []step) reflect.Value {
	for _, s := range path {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if s.field {
			v = v.Field(s.i)
		} else {
			v = v.Index(s.i)
		}
	}
	return v
}

// busyStates captures the fabric mid-run under four workloads that between
// them fill every kind of snapshot state a fault-free fabric has: a gather
// layer with staggered PEs (stations, δ waits, flits on links and in
// buffers, packets under reassembly at the sinks), an INA accumulation
// (reduce stations and waits), a tree broadcast (multicast destination
// sets and branches) and saturating uniform traffic (injection queues,
// reassembly at the NICs). The last state's first queued packet is then
// made a multicast carrying a payload, which no workload queues.
func busyStates(t *testing.T) []*noc.Snapshot {
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
	runs := []struct {
		ina   bool
		at    int64
		setup func(*noc.Network)
	}{
		{false, 380, func(nw *noc.Network) {
			alone(systolic.NewController(nw, systolic.Config{Layer: layer, Mode: systolic.GatherMode, TMAC: 5, MaxRounds: 1, SkewPerHop: 2}))(nw)
		}},
		{true, 30, func(nw *noc.Network) {
			alone(traffic.NewAccumulationController(nw, traffic.AccumulationConfig{Scheme: traffic.CollectINA, Rounds: 1, ComputeLatency: 20}))(nw)
		}},
		{false, 16, func(nw *noc.Network) {
			alone(collective.NewDriver(nw, collective.Config{Op: collective.Broadcast, Algorithm: collective.AlgTree, Rounds: 1, ComputeLatency: 10}))(nw)
		}},
		{false, 150, func(nw *noc.Network) {
			gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
				Pattern: traffic.UniformRandom{Nodes: nw.Mesh().NumNodes()}, InjectionRate: 0.3,
				PacketFlits: 3, Measure: 1 << 40, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			nw.Engine().AddTicker(gen)
		}},
	}
	var states []*noc.Snapshot
	for _, r := range runs {
		cfg := noc.DefaultConfig(8, 8)
		cfg.EnableINA = r.ina
		nw, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.setup(nw)
		nw.Engine().Run(r.at)
		s, err := nw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, s)
		nw.Close()
	}
	last := states[len(states)-1]
	for i := range last.NICs {
		if q := last.NICs[i].Queue; len(q) > 0 {
			q[0].HasMDst, q[0].MDst = true, []topology.NodeID{1, 2}
			q[0].HasCarried, q[0].Carried = true, flit.Payload{Seq: 1 << 40, Src: q[0].Src, Dst: q[0].Dst, Bits: 32}
			return states
		}
	}
	t.Fatal("saturating traffic queued no packet")
	return nil
}

// encodeRestored restores s onto a new network and encodes it as the
// boundary after an open at s.Cycle-1. ok is false when Restore refuses s.
func encodeRestored(t *testing.T, s *noc.Snapshot) (enc []byte, ok bool) {
	t.Helper()
	nw, err := noc.New(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if nw.Restore(s) != nil {
		return nil, false
	}
	return nw.AppendState(nil, s.Cycle-1), true
}

// TestStateEncodingSeesEveryEncodedField perturbs, one field at a time,
// the captured state of a busy fabric and restores it onto a new network:
// every encoded or rebased field must change the encoded bytes. Where the
// encoding writes a field only in some states (an owner while one is
// held), one of a field's first occurrences is enough, and VCs at rest are
// skipped. A cycle the component waits until is moved past the boundary.
// A renamed identifier is checked by TestEncoderNames in package flit.
func TestStateEncodingSeesEveryEncodedField(t *testing.T) {
	reached := map[string]bool{}
	for _, s := range busyStates(t) {
		raw, err := noc.EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		base, ok := encodeRestored(t, s)
		if !ok {
			t.Fatal("a captured state does not restore")
		}
		if again, _ := encodeRestored(t, s); !bytes.Equal(base, again) {
			t.Fatal("one state encodes to two byte strings")
		}
		var occs []occurrence
		leafOccurrences(reflect.ValueOf(s).Elem(), nil, &occs)
		tries := map[string]int{}
		for _, o := range occs {
			if reached[o.key] || tries[o.key] >= 8 {
				continue
			}
			tries[o.key]++
			for _, delta := range []int64{1, -1, 1000} {
				c, err := noc.DecodeSnapshot(raw)
				if err != nil {
					t.Fatal(err)
				}
				v := at(reflect.ValueOf(c).Elem(), o.path)
				switch v.Kind() {
				case reflect.Bool:
					v.SetBool(!v.Bool())
				case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
					v.SetInt(v.Int() + delta)
				case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
					v.SetUint(v.Uint() + uint64(delta))
				default:
					t.Fatalf("field %s has kind %s the perturbation cannot change", o.key, v.Kind())
				}
				if enc, ok := encodeRestored(t, c); ok && !bytes.Equal(enc, base) {
					reached[o.key] = true
					break
				}
			}
		}
	}
	var missing []string
	for key, f := range snapshotFields() {
		class := stateFields[key]
		if (strings.HasPrefix(class, encoded) || strings.HasPrefix(class, rebased)) &&
			stateStruct(f.Type) == nil && !reached[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("perturbing %s never changed the encoding", key)
	}
}
