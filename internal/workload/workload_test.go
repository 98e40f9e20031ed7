package workload

import (
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/traffic"
)

// fakeDriver is a scripted phase: it reports injection and drain after
// fixed numbers of ticks, injecting nothing.
type fakeDriver struct {
	injectAfter int64
	drainAfter  int64

	started bool
	startAt int64
	ticks   int64
	tag     flit.Tag
}

func (d *fakeDriver) Start(cycle int64) { d.started = true; d.startAt = cycle }
func (d *fakeDriver) Tick(cycle int64)  { d.ticks++ }
func (d *fakeDriver) Injected() bool    { return d.started && d.ticks >= d.injectAfter }
func (d *fakeDriver) Drained() bool     { return d.started && d.ticks >= d.drainAfter }
func (d *fakeDriver) SetTag(t flit.Tag) { d.tag = t }

func testNetwork(t *testing.T, rows, cols int) *noc.Network {
	t.Helper()
	cfg := noc.DefaultConfig(rows, cols)
	cfg.EastSinks = false
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSchedulerValidation(t *testing.T) {
	nw := testNetwork(t, 2, 2)
	ok := Job{Name: "ok", Phases: []Phase{{Name: "p0", Driver: &fakeDriver{drainAfter: 1}}}}
	cases := []struct {
		name string
		jobs []Job
	}{
		{"no jobs", nil},
		{"empty job", []Job{{Name: "empty"}}},
		{"nil driver", []Job{{Name: "j", Phases: []Phase{{Name: "p"}}}}},
		{"self dep", []Job{{Name: "j", Phases: []Phase{
			{Name: "p0", Driver: &fakeDriver{}, After: []Dep{{Phase: 0}}},
		}}}},
		{"forward dep", []Job{{Name: "j", Phases: []Phase{
			{Name: "p0", Driver: &fakeDriver{}, After: []Dep{{Phase: 1}}},
			{Name: "p1", Driver: &fakeDriver{}},
		}}}},
		{"negative arrival", []Job{{Name: "j", Arrival: -1, Phases: ok.Phases}}},
	}
	for _, tc := range cases {
		if _, err := New(nw, tc.jobs); err == nil {
			t.Errorf("%s: New accepted invalid jobs", tc.name)
		}
	}
	if _, err := New(nil, []Job{ok}); err == nil {
		t.Error("New accepted nil network")
	}
	if _, err := New(nw, []Job{ok}); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}

// TestBarrierVsOverlapAdmission pins the edge semantics: a barrier
// successor starts the cycle after its predecessor drains, an overlap
// successor the cycle after the predecessor finishes injecting.
func TestBarrierVsOverlapAdmission(t *testing.T) {
	const injectAfter, drainAfter = 3, 10
	run := func(overlap bool) *Result {
		nw := testNetwork(t, 2, 2)
		s, err := New(nw, []Job{{Name: "j", Phases: []Phase{
			{Name: "p0", Driver: &fakeDriver{injectAfter: injectAfter, drainAfter: drainAfter}},
			{Name: "p1", Driver: &fakeDriver{injectAfter: 1, drainAfter: 2},
				After: []Dep{{Phase: 0, Overlap: overlap}}},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(1000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	barrier := run(false)
	overlap := run(true)
	// The predecessor's k-th tick happens at cycle k-1, so its
	// injected/drained transitions land at injectAfter-1 / drainAfter-1
	// and the successor is admitted one cycle later.
	if got := barrier.Jobs[0].Phases[1].StartCycle; got != drainAfter {
		t.Errorf("barrier successor admitted at %d, want %d", got, drainAfter)
	}
	if got := overlap.Jobs[0].Phases[1].StartCycle; got != injectAfter {
		t.Errorf("overlap successor admitted at %d, want %d", got, injectAfter)
	}
	if overlap.Cycles >= barrier.Cycles {
		t.Errorf("overlap schedule (%d cycles) not shorter than barrier (%d)", overlap.Cycles, barrier.Cycles)
	}
}

// TestJobArrivalDelaysAdmission verifies the batched-arrival offset.
func TestJobArrivalDelaysAdmission(t *testing.T) {
	nw := testNetwork(t, 2, 2)
	s, err := New(nw, []Job{
		{Name: "first", Phases: []Phase{{Name: "p", Driver: &fakeDriver{drainAfter: 4}}}},
		{Name: "late", Arrival: 7, Phases: []Phase{{Name: "p", Driver: &fakeDriver{drainAfter: 4}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].StartCycle; got != 0 {
		t.Errorf("first job started at %d, want 0", got)
	}
	if got := res.Jobs[1].StartCycle; got != 7 {
		t.Errorf("late job started at %d, want 7", got)
	}
}

// TestMultiJobGeneratorConservation runs three concurrent synthetic jobs
// on one fabric and requires exact per-job packet conservation: every
// packet a job injected is delivered exactly once, attributed to that job
// by its tag, and no packet is orphaned. DebugFlitPool extends the check
// to flit granularity — a leaked or double-freed flit fails the run.
func TestMultiJobGeneratorConservation(t *testing.T) {
	cfg := noc.DefaultConfig(4, 4)
	cfg.EastSinks = false
	cfg.DebugFlitPool = true
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rate float64, seed int64) (*traffic.Generator, Job) {
		gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
			Pattern:       traffic.UniformRandom{Nodes: 16},
			InjectionRate: rate,
			PacketFlits:   2,
			Warmup:        50,
			Measure:       400,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		name := "gen"
		return gen, Job{Name: name, Phases: []Phase{{Name: "traffic", Driver: gen}}}
	}
	gens := make([]*traffic.Generator, 3)
	jobs := make([]Job, 3)
	for i := range jobs {
		gens[i], jobs[i] = mk(0.02+0.02*float64(i), int64(i+1))
	}
	s, err := New(nw, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var totalSent uint64
	for i, g := range gens {
		if g.Sent() == 0 {
			t.Errorf("job %d injected nothing", i)
		}
		if g.Sent() != g.Delivered() {
			t.Errorf("job %d: sent %d != delivered %d", i, g.Sent(), g.Delivered())
		}
		if got := res.Jobs[i].PacketsEjected; got != g.Delivered() {
			t.Errorf("job %d: scheduler attributed %d packets, driver saw %d", i, got, g.Delivered())
		}
		if res.Jobs[i].Latency.N() == 0 {
			t.Errorf("job %d has no latency samples", i)
		}
		totalSent += g.Sent()
	}
	if res.OrphanPackets != 0 || res.OrphanPayloads != 0 {
		t.Errorf("orphans: %d packets, %d payloads", res.OrphanPackets, res.OrphanPayloads)
	}
	if a := nw.Activity(); a.PacketsSent != totalSent {
		t.Errorf("network injected %d packets, jobs account for %d", a.PacketsSent, totalSent)
	}
	if live := nw.FlitPool().Live(); live != 0 {
		t.Errorf("%d flits leaked", live)
	}
	if slow := res.MaxMinSlowdown(); slow < 1 {
		t.Errorf("max/min slowdown %v < 1", slow)
	}
	if jain := res.JainFairness(); jain <= 0 || jain > 1 {
		t.Errorf("Jain index %v out of (0,1]", jain)
	}
}

// TestModelLayers covers the model-name resolution used by the CLIs.
func TestModelLayers(t *testing.T) {
	alex, err := ModelLayers("alexnet")
	if err != nil || len(alex) != 11 {
		t.Fatalf("alexnet: %d layers, err %v; want 11", len(alex), err)
	}
	vgg, err := ModelLayers("VGG16")
	if err != nil || len(vgg) != 21 {
		t.Fatalf("vgg16: %d layers, err %v; want 21", len(vgg), err)
	}
	if _, err := ModelLayers("lenet"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestUntaggedTrafficCountsAsOrphan pins the zero-tag reservation: a
// packet injected outside the scheduler (no tag) must be counted as an
// orphan, not attributed to job 0 — job tags are offset by one precisely
// so the two are distinguishable.
func TestUntaggedTrafficCountsAsOrphan(t *testing.T) {
	nw := testNetwork(t, 2, 2)
	gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 4},
		InjectionRate: 0.1,
		PacketFlits:   2,
		Warmup:        0,
		Measure:       100,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nw, []Job{{Name: "job0", Phases: []Phase{{Name: "gen", Driver: gen}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Untagged injection from outside the scheduler, mid-schedule.
	nw.NIC(0).SendUnicastN(0, 3, 2)
	res, err := s.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.OrphanPackets != 1 {
		t.Errorf("orphan packets = %d, want 1 (the untagged injection)", res.OrphanPackets)
	}
	if got := res.Jobs[0].PacketsEjected; got != gen.Delivered() {
		t.Errorf("job 0 attributed %d packets, its driver delivered %d", got, gen.Delivered())
	}
}

// untaggedSender sends one untagged packet from NIC 0 in each of its first
// left ticks. It implements Driver and nothing else: no Taggable, no
// PacketSink.
type untaggedSender struct {
	nw   *noc.Network
	left int
}

func (u *untaggedSender) Start(int64)    {}
func (u *untaggedSender) Injected() bool { return u.left == 0 }
func (u *untaggedSender) Drained() bool  { return u.left == 0 }
func (u *untaggedSender) Tick(int64) {
	if u.left > 0 {
		u.left--
		u.nw.NIC(0).SendUnicastN(0, 3, 2)
	}
}

// TestStaleTagClearedBetweenTicks pins that no tag outlives the send it was
// passed to: a job whose driver is not Taggable sends untagged packets on a
// NIC a tagged driver injects from in the same cycles; they count as
// orphans and the tagged driver's conservation pair stays exact.
func TestStaleTagClearedBetweenTicks(t *testing.T) {
	const foreignPackets = 20
	nw := testNetwork(t, 4, 4)
	gen, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: 16},
		InjectionRate: 1.0, // every NIC sends tagged packets every cycle
		PacketFlits:   2,
		Measure:       foreignPackets,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nw, []Job{
		{Name: "job0", Phases: []Phase{{Name: "gen", Driver: gen}}},
		{Name: "job1", Phases: []Phase{{Name: "raw", Driver: &untaggedSender{nw: nw, left: foreignPackets}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := nw.Engine()
	eng.AddTicker(s)
	if _, err := eng.RunUntil(func() bool { return s.Done() && nw.Quiescent() }, 100000); err != nil {
		t.Fatal(err)
	}
	res := s.Result(eng.Cycle())
	if res.OrphanPackets != foreignPackets {
		t.Errorf("orphan packets = %d, want %d (a tag leaked onto untagged traffic?)", res.OrphanPackets, foreignPackets)
	}
	if got := res.Jobs[0].PacketsEjected; got != gen.Sent() || gen.Delivered() != gen.Sent() {
		t.Errorf("job 0 attributed %d packets, its generator sent %d and received %d", got, gen.Sent(), gen.Delivered())
	}
}

// TestReplayerAlongsideAccumulation schedules a trace-replay phase and an
// accumulation job collecting at the same row sinks: their gather packets
// can pick up each other's payloads at shared stations, so both phases
// must still drain exactly — the replayer via foreign routing of stray
// payloads, the accumulation job via its oracle.
func TestReplayerAlongsideAccumulation(t *testing.T) {
	layer, ok := cnn.LayerByName(cnn.AlexNetConvLayers(), "Conv3")
	if !ok {
		t.Fatal("Conv3 missing")
	}
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	events := traffic.GenerateLayerTrace(layer, 4, 4, true, 0, nw.Topology().NumNodes())
	rp, err := traffic.NewReplayer(nw, events)
	if err != nil {
		t.Fatal(err)
	}
	accJobs, drivers, err := NewInferenceBatch(nw, 1, 0, PipelineConfig{
		Layers: []cnn.LayerConfig{layer},
		Scheme: traffic.CollectGather,
		Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := append(accJobs, Job{
		Name:   "replay",
		Phases: []Phase{{Name: "trace", Driver: rp}},
	})
	s, err := New(nw, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if snap := drivers[0][0].Snapshot(); snap.OracleErrors != 0 {
		t.Errorf("accumulation job: %d oracle errors", snap.OracleErrors)
	}
	if rp.EventsInjected != uint64(len(events)) {
		t.Errorf("replayed %d of %d events", rp.EventsInjected, len(events))
	}
	if res.OrphanPackets != 0 || res.OrphanPayloads != 0 {
		t.Errorf("orphans: %d packets, %d payloads", res.OrphanPackets, res.OrphanPayloads)
	}
}
