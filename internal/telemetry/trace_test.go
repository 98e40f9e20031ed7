package telemetry_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// handBuiltTraceReport holds every EventKind: a tagged packet with its
// whole lifecycle, an untagged one, a packet whose first event is not an
// inject (its span carries no src/dst), stall and fault events, a Loc of
// -1 (which lands on the schedule tid), and phase timelines that are
// complete, never drained, or missing their start.
func handBuiltTraceReport() *telemetry.Report {
	tag := flit.NewTag(2, 3)
	evs := []telemetry.Event{
		{Cycle: 0, Kind: telemetry.EvPhaseStart, Loc: 1, Aux: 3},
		{Cycle: 2, Packet: 7, Tag: tag, Kind: telemetry.EvInject, Loc: 4, Aux: 9},
		{Cycle: 3, Packet: 8, Kind: telemetry.EvInject, Loc: 0, Aux: 63},
		{Cycle: 4, Packet: 7, Tag: tag, Kind: telemetry.EvNetwork, Loc: 4},
		{Cycle: 5, Packet: 7, Tag: tag, Kind: telemetry.EvRC, Loc: 4},
		{Cycle: 5, Packet: 9, Tag: tag, Kind: telemetry.EvSA, Loc: 12, Aux: 2},
		{Cycle: 6, Packet: 7, Tag: tag, Kind: telemetry.EvVA, Loc: 4},
		{Cycle: 6, Packet: 9, Tag: tag, Kind: telemetry.EvLink, Loc: 13},
		{Cycle: 6, Packet: 9, Tag: tag, Kind: telemetry.EvFaultCorrupt, Loc: 13, Aux: 1},
		{Cycle: 7, Packet: 7, Tag: tag, Kind: telemetry.EvSA, Loc: 4, Aux: 1},
		{Cycle: 7, Packet: 8, Kind: telemetry.EvFaultDrop, Loc: 1, Aux: 0},
		{Cycle: 8, Packet: 7, Tag: tag, Kind: telemetry.EvLink, Loc: 5},
		{Cycle: 9, Packet: 7, Tag: tag, Kind: telemetry.EvGatherUpload, Loc: 5, Aux: 6},
		{Cycle: 9, Packet: 7, Tag: tag, Kind: telemetry.EvReduceMerge, Loc: 5, Aux: 2},
		{Cycle: 9, Packet: 11, Kind: telemetry.EvRetransmit, Loc: 0, Aux: 4},
		{Cycle: 10, Kind: telemetry.EvPhaseInjected, Loc: 1, Aux: 3},
		{Cycle: 10, Kind: telemetry.EvStall, Loc: 0, Aux: 500},
		{Cycle: 11, Packet: 7, Tag: tag, Kind: telemetry.EvHead, Loc: 9},
		{Cycle: 11, Packet: 12, Tag: tag, Kind: telemetry.EvRC, Loc: -1},
		{Cycle: 14, Packet: 7, Tag: tag, Kind: telemetry.EvEject, Loc: 9, Aux: 5},
		{Cycle: 15, Kind: telemetry.EvPhaseDrained, Loc: 1, Aux: 3},
		{Cycle: 16, Kind: telemetry.EvPhaseStart, Loc: 0, Aux: 0},
		{Cycle: 17, Kind: telemetry.EvPhaseDrained, Loc: 2, Aux: 1},
		{Cycle: 18, Packet: 8, Kind: telemetry.EvEject, Loc: 63, Aux: 14},
	}
	return &telemetry.Report{Events: evs}
}

// phasedTraceReport harvests an 8x8 run of two tagged jobs of two phases
// each with every packet traced.
func phasedTraceReport(t *testing.T) *telemetry.Report {
	t.Helper()
	cfg := noc.DefaultConfig(8, 8)
	cfg.EastSinks = false
	cfg.Telemetry = &telemetry.Config{Epoch: 64, TraceSample: 1}
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	jobs := make([]workload.Job, 2)
	for i := range jobs {
		var phases []workload.Phase
		for p := 0; p < 2; p++ {
			gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
				Pattern:       traffic.UniformRandom{Nodes: 64},
				InjectionRate: 0.01,
				PacketFlits:   2,
				Measure:       150,
				Seed:          int64(2*i + p + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			phases = append(phases, workload.Phase{Name: fmt.Sprintf("p%d", p), Driver: gen})
		}
		jobs[i] = workload.Job{Name: fmt.Sprintf("job%d", i), Phases: phases}
	}
	s, err := workload.New(nw, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	rep := nw.HarvestTelemetry()
	if rep.DroppedEvents != 0 {
		t.Fatalf("dropped %d events", rep.DroppedEvents)
	}
	return rep
}

// requireSameTrace fails unless WriteChromeTrace emits the reference
// writer's bytes for rep.
func requireSameTrace(t *testing.T, rep *telemetry.Report) {
	t.Helper()
	var want, got bytes.Buffer
	if err := telemetry.ReferenceChromeTrace(rep, &want); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("WriteChromeTrace differs from the reference at byte %d of %d (reference %d):\n got ...%s\nwant ...%s",
			i, len(g), len(w), g[max(i-80, 0):min(i+80, len(g))], w[max(i-80, 0):min(i+80, len(w))])
	}
}

// TestChromeTraceMatchesReference: the streaming writer emits exactly
// the bytes of the encoding/json writer it replaced.
func TestChromeTraceMatchesReference(t *testing.T) {
	t.Run("hand-built", func(t *testing.T) { requireSameTrace(t, handBuiltTraceReport()) })
	t.Run("harvested 8x8 with phases", func(t *testing.T) {
		rep := phasedTraceReport(t)
		phases := 0
		for _, ev := range rep.Events {
			if ev.Kind == telemetry.EvPhaseStart {
				phases++
			}
		}
		if phases != 4 || len(rep.Events) < 1000 {
			t.Fatalf("report holds %d events and %d phase starts; want a traced run of 4 phases", len(rep.Events), phases)
		}
		requireSameTrace(t, rep)
	})
	t.Run("empty", func(t *testing.T) { requireSameTrace(t, &telemetry.Report{}) })
}

// FuzzWriteChromeTrace: for any event slice — any kind, including ones
// past the last, any order, negative cycles, locations and aux values —
// the streaming writer emits the reference writer's bytes. Each 16 input
// bytes make one event.
func FuzzWriteChromeTrace(f *testing.F) {
	var seed []byte
	for _, ev := range handBuiltTraceReport().Events {
		var b [16]byte
		b[0] = byte(ev.Kind)
		b[1] = byte(ev.Packet)
		b[2] = byte(ev.Tag.Job())
		b[3] = byte(ev.Tag.Phase())
		binary.LittleEndian.PutUint32(b[4:], uint32(ev.Cycle))
		b[8] = byte(ev.Loc << 3)
		binary.LittleEndian.PutUint32(b[12:], uint32(ev.Aux))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		rep := &telemetry.Report{}
		for ; len(in) >= 16; in = in[16:] {
			rep.Events = append(rep.Events, telemetry.Event{
				Kind:   telemetry.EventKind(in[0] % 20),
				Packet: uint64(in[1] % 16),
				Tag:    flit.NewTag(int(in[2]%4), int(in[3]%4)),
				Cycle:  int64(int32(binary.LittleEndian.Uint32(in[4:]))),
				// Locations in [-16, 16): phase events turn them into job
				// tracks, and the metadata is jobs x node threads.
				Loc: int32(int8(in[8])) >> 3,
				Aux: int64(int32(binary.LittleEndian.Uint32(in[12:]))),
			})
		}
		requireSameTrace(t, rep)
	})
}
