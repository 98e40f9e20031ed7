package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"gathernoc/internal/flit"
)

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		cfg  Config
		want bool
	}{
		{Config{}, false},
		{Config{Epoch: 256}, true},
		{Config{TraceSample: 1}, true},
		{Config{Epoch: 64, TraceSample: 8}, true},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("%+v Enabled() = %v, want %v", c.cfg, got, c.want)
		}
	}
	if DefaultConfig() != (Config{Epoch: 256, TraceSample: 64}) {
		t.Errorf("DefaultConfig() = %+v", DefaultConfig())
	}
}

// TestSampledSpreadsAcrossStripedIDs pins the hash-based sampling
// predicate: packet ids are striped per NIC (node i issues i, i+64,
// i+128, ...), so a naive pid%N==0 would sample one node's packets only.
// The hash must instead pick roughly 1/N of each node's stripe.
func TestSampledSpreadsAcrossStripedIDs(t *testing.T) {
	c := New(Config{TraceSample: 16}, 1)
	p := c.ShardProbe(0)
	const nodes, perNode = 64, 256
	nodesHit := 0
	total := 0
	for n := 0; n < nodes; n++ {
		hits := 0
		for k := 0; k < perNode; k++ {
			if p.Sampled(uint64(n + k*nodes)) {
				hits++
			}
		}
		if hits > 0 {
			nodesHit++
		}
		total += hits
	}
	if nodesHit < nodes/2 {
		t.Errorf("sample concentrated: only %d of %d nodes have sampled packets", nodesHit, nodes)
	}
	want := nodes * perNode / 16
	if total < want/2 || total > want*2 {
		t.Errorf("sample rate off: %d of %d sampled, want ~%d", total, nodes*perNode, want)
	}
}

func TestSampledEdgeRates(t *testing.T) {
	all := New(Config{TraceSample: 1}, 1).ShardProbe(0)
	none := New(Config{TraceSample: 0}, 1).ShardProbe(0)
	for pid := uint64(0); pid < 100; pid++ {
		if !all.Sampled(pid) {
			t.Fatalf("TraceSample=1 skipped packet %d", pid)
		}
		if none.Sampled(pid) {
			t.Fatalf("TraceSample=0 sampled packet %d", pid)
		}
	}
}

func TestEmitOverflowCountsDrops(t *testing.T) {
	c := New(Config{TraceSample: 1}, 1)
	c.Start()
	p := c.ShardProbe(0)
	for i := 0; i < maxEvents+6; i++ {
		p.Emit(Event{Cycle: int64(i), Packet: uint64(i), Kind: EvInject})
	}
	rep := c.Harvest(maxEvents + 6)
	if len(rep.Events) != maxEvents {
		t.Errorf("kept %d events, want maxEvents = %d", len(rep.Events), maxEvents)
	}
	if rep.DroppedEvents != 6 {
		t.Errorf("DroppedEvents = %d, want 6", rep.DroppedEvents)
	}
}

// collectorWithSource builds a one-shard collector with a single
// two-field source (one delta counter, one gauge) backed by the returned
// slice: [0] is the cumulative counter, [1] the gauge.
func collectorWithSource(cfg Config) (*Collector, []int64) {
	c := New(cfg, 1)
	state := make([]int64, 2)
	c.AddSource(0, SourceMeta{Kind: "router", ID: 3, Row: 0, Col: 3},
		[]Field{{Name: "writes"}, {Name: "occupancy", Gauge: true}},
		fnSource{"r3", func(dst []int64) { copy(dst, state) }})
	c.Start()
	return c, state
}

// fnSource is a Source made of a name and a function.
type fnSource struct {
	name string
	read func(dst []int64)
}

func (s fnSource) Read(dst []int64) { s.read(dst) }

func (s fnSource) AppendName(dst []byte) []byte { return append(dst, s.name...) }

// TestSnapshotDeltaVsGauge drives epoch boundaries by hand and checks the
// delta field reports per-epoch differences while the gauge field reports
// the instantaneous value.
func TestSnapshotDeltaVsGauge(t *testing.T) {
	c, state := collectorWithSource(Config{Epoch: 4})
	ec := c.EpochCommitter(0)
	for cycle := int64(0); cycle < 12; cycle++ {
		state[0] += 2 // counter advances 2/cycle => 8/epoch
		state[1] = cycle
		ec.Commit(cycle)
	}
	rep := c.Harvest(12)
	if len(rep.EpochIndex) != 3 {
		t.Fatalf("retained %d epochs, want 3", len(rep.EpochIndex))
	}
	ss := rep.Sources[0]
	for e := 0; e < 3; e++ {
		if rep.EpochIndex[e] != int64(e) || rep.EpochEnd[e] != int64(e*4+3) {
			t.Errorf("epoch %d axis = (%d, %d), want (%d, %d)",
				e, rep.EpochIndex[e], rep.EpochEnd[e], e, e*4+3)
		}
		if ss.At(e)[0] != 8 {
			t.Errorf("epoch %d delta = %d, want 8", e, ss.At(e)[0])
		}
		if ss.At(e)[1] != int64(e*4+3) {
			t.Errorf("epoch %d gauge = %d, want %d", e, ss.At(e)[1], e*4+3)
		}
	}
}

// TestEpochRingWrap bounds the series: past maxEpochs epochs only the
// newest maxEpochs survive, indices intact. Ring rows exist only for the
// slots the run reached, and a wrapped ring writes into the rows it has.
func TestEpochRingWrap(t *testing.T) {
	c, state := collectorWithSource(Config{Epoch: 2})
	ec := c.EpochCommitter(0)
	p := c.ShardProbe(0)
	var first [2]*byte
	const epochs = maxEpochs + 3
	for cycle := int64(0); cycle < 2*epochs; cycle++ {
		state[0]++
		ec.Commit(cycle)
		if cycle == 3 { // the first two slots reached once
			first = [2]*byte{&p.ring[0].vals[0], &p.ring[1].vals[0]}
		}
	}
	if len(p.ring) != maxEpochs {
		t.Fatalf("ring holds %d rows, want maxEpochs = %d", len(p.ring), maxEpochs)
	}
	if &p.ring[0].vals[0] != first[0] || &p.ring[1].vals[0] != first[1] {
		t.Error("rows were reallocated after the ring wrapped; they must be reused")
	}
	rep := c.Harvest(2 * epochs)
	if len(rep.EpochIndex) != maxEpochs {
		t.Fatalf("retained %d epochs, want %d", len(rep.EpochIndex), maxEpochs)
	}
	if first, last := rep.EpochIndex[0], rep.EpochIndex[maxEpochs-1]; first != 3 || last != epochs-1 {
		t.Errorf("retained epochs %d..%d, want 3..%d", first, last, epochs-1)
	}
	if first, last := rep.EpochEnd[0], rep.EpochEnd[maxEpochs-1]; first != 7 || last != 2*epochs-1 {
		t.Errorf("epoch ends %d..%d, want 7..%d", first, last, 2*epochs-1)
	}

	// A long window costs nothing until it is used: 3 epochs, 3 rows.
	c, state = collectorWithSource(Config{Epoch: 2})
	ec = c.EpochCommitter(0)
	if n := len(c.ShardProbe(0).ring); n != 0 {
		t.Errorf("Start allocated %d ring rows before any epoch ran", n)
	}
	for cycle := int64(0); cycle < 6; cycle++ {
		state[0]++
		ec.Commit(cycle)
	}
	if n := len(c.ShardProbe(0).ring); n != 3 {
		t.Errorf("3 epochs of a 1024-epoch window allocated %d rows, want 3", n)
	}
	if rep := c.Harvest(6); len(rep.EpochIndex) != 3 || rep.Sources[0].At(2)[0] != 2 {
		t.Errorf("harvested epochs %v, last epoch's values %v", rep.EpochIndex, rep.Sources[0].At(len(rep.EpochIndex)-1))
	}
}

// TestHarvestSumsSplitSource: a source registered with the same meta and
// fields on several shards (the flit pool's per-shard views) harvests as
// one series holding the sum of the parts, while sources that share a meta
// but not their fields (a link's flit and credit halves) stay apart.
func TestHarvestSumsSplitSource(t *testing.T) {
	c := New(Config{Epoch: 4}, 3)
	meta := SourceMeta{Kind: "pool", ID: 0, Row: -1, Col: -1}
	fields := []Field{{Name: "live", Gauge: true}}
	parts := []int64{5, -2, 4}
	for s := range parts {
		c.AddSource(s, meta, fields, fnSource{"flitpool", func(dst []int64) { dst[0] = parts[s] }})
	}
	link := SourceMeta{Kind: "link", ID: 7, Row: -1, Col: -1}
	one := fnSource{"l7", func(dst []int64) { dst[0] = 1 }}
	c.AddSource(2, link, []Field{{Name: "flits"}}, one)
	c.AddSource(0, link, []Field{{Name: "credits"}}, one)
	c.Start()
	for s := range parts {
		ec := c.EpochCommitter(s)
		for cycle := int64(0); cycle < 8; cycle++ {
			if s == 1 && cycle == 4 {
				parts[1] = -6
			}
			ec.Commit(cycle)
		}
		parts[1] = -2
	}
	rep := c.Harvest(8)
	if len(rep.Sources) != 3 {
		t.Fatalf("harvested %d sources, want link credits, link flits and one pool", len(rep.Sources))
	}
	pool := rep.Sources[2]
	if pool.Meta != meta || len(pool.rows) != 2 || pool.At(0)[0] != 7 || pool.At(1)[0] != 3 {
		t.Errorf("pool series = %+v, want live 7 then 3", pool)
	}
	// The sums are the report's own rows; the probes' rings keep the parts.
	part := SourceSeries{rows: [][]byte{c.ShardProbe(0).ring[0].vals}, words: 1, buf: make([]int64, 1)}
	if got := part.At(0)[0]; got != 5 {
		t.Errorf("shard 0's ring row holds %d after Harvest, want its own part 5", got)
	}
}

// TestHarvestFlushesPartialEpoch: a run that stops between boundaries
// still reports the tail cycles as a final short epoch.
func TestHarvestFlushesPartialEpoch(t *testing.T) {
	c, state := collectorWithSource(Config{Epoch: 4})
	ec := c.EpochCommitter(0)
	for cycle := int64(0); cycle < 6; cycle++ {
		state[0]++
		ec.Commit(cycle)
	}
	rep := c.Harvest(6)
	if len(rep.EpochIndex) != 2 {
		t.Fatalf("retained %d epochs, want full + partial", len(rep.EpochIndex))
	}
	if rep.EpochIndex[1] != 1 || rep.EpochEnd[1] != 5 {
		t.Errorf("partial epoch = (%d, %d), want (1, 5)", rep.EpochIndex[1], rep.EpochEnd[1])
	}
	ss := rep.Sources[0]
	if ss.At(0)[0] != 4 || ss.At(1)[0] != 2 {
		t.Errorf("deltas = [%d %d], want [4 2]", ss.At(0)[0], ss.At(1)[0])
	}
	// Harvesting exactly at a boundary must not add an empty epoch.
	c2, state2 := collectorWithSource(Config{Epoch: 4})
	ec2 := c2.EpochCommitter(0)
	for cycle := int64(0); cycle < 4; cycle++ {
		state2[0]++
		ec2.Commit(cycle)
	}
	if rep2 := c2.Harvest(4); len(rep2.EpochIndex) != 1 {
		t.Errorf("boundary harvest retained %d epochs, want 1", len(rep2.EpochIndex))
	}
}

// TestHarvestCanonicalOrder scrambles sources across two shard probes and
// events across probes and cycles, then checks Harvest's canonical sorts:
// sources by (kind, id, first field), events by (cycle, packet, kind, loc,
// aux). These orders are what makes exports shard-count-invariant.
func TestHarvestCanonicalOrder(t *testing.T) {
	c := New(Config{Epoch: 8, TraceSample: 1}, 2)
	zero := fnSource{read: func(dst []int64) { dst[0] = 0 }}
	c.AddSource(1, SourceMeta{Kind: "router", ID: 9}, []Field{{Name: "writes"}}, zero)
	c.AddSource(0, SourceMeta{Kind: "nic", ID: 2}, []Field{{Name: "injected"}}, zero)
	c.AddSource(0, SourceMeta{Kind: "link", ID: 5}, []Field{{Name: "flits"}}, zero)
	c.AddSource(1, SourceMeta{Kind: "link", ID: 5}, []Field{{Name: "credits"}}, zero)
	c.AddSource(0, SourceMeta{Kind: "router", ID: 1}, []Field{{Name: "writes"}}, zero)
	c.Start()

	c.ShardProbe(1).Emit(Event{Cycle: 7, Packet: 1, Kind: EvRC, Loc: 4})
	c.ShardProbe(0).Emit(Event{Cycle: 3, Packet: 2, Kind: EvSA, Loc: 1})
	c.ShardProbe(0).Emit(Event{Cycle: 3, Packet: 1, Kind: EvLink, Loc: 6})
	c.ShardProbe(1).Emit(Event{Cycle: 3, Packet: 1, Kind: EvRC, Loc: 6})
	c.SerialProbe().Emit(Event{Cycle: 3, Packet: 1, Kind: EvRC, Loc: 2})

	rep := c.Harvest(8)
	var order []string
	for _, ss := range rep.Sources {
		order = append(order, ss.Meta.Kind+"/"+ss.Fields[0].Name)
	}
	want := []string{"link/credits", "link/flits", "nic/injected", "router/writes", "router/writes"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("source order %v, want %v", order, want)
	}
	if rep.Sources[3].Meta.ID != 1 || rep.Sources[4].Meta.ID != 9 {
		t.Errorf("router ids out of order: %d then %d", rep.Sources[3].Meta.ID, rep.Sources[4].Meta.ID)
	}
	wantEv := []Event{
		{Cycle: 3, Packet: 1, Kind: EvRC, Loc: 2},
		{Cycle: 3, Packet: 1, Kind: EvRC, Loc: 6},
		{Cycle: 3, Packet: 1, Kind: EvLink, Loc: 6},
		{Cycle: 3, Packet: 2, Kind: EvSA, Loc: 1},
		{Cycle: 7, Packet: 1, Kind: EvRC, Loc: 4},
	}
	if !reflect.DeepEqual(rep.Events, wantEv) {
		t.Errorf("event order:\n got %+v\nwant %+v", rep.Events, wantEv)
	}
}

func TestMetricsCSVRoundTrip(t *testing.T) {
	c, state := collectorWithSource(Config{Epoch: 4})
	ec := c.EpochCommitter(0)
	for cycle := int64(0); cycle < 8; cycle++ {
		state[0] += 3
		state[1] = cycle
		ec.Commit(cycle)
	}
	rep := c.Harvest(8)

	var buf bytes.Buffer
	if err := rep.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := 1 + 2*2; len(lines) != want { // header + epochs x fields
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), want, buf.String())
	}
	// Delta rows carry a per_cycle rate; gauge rows leave it empty.
	if !strings.Contains(buf.String(), "router,3,r3,0,3,writes,12,3.0000") {
		t.Errorf("delta row missing per-cycle rate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "occupancy,3,\n") && !strings.Contains(buf.String(), "occupancy,7,\n") {
		t.Errorf("gauge rows should leave per_cycle empty:\n%s", buf.String())
	}

	pts, err := scanAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("parsed %d points, want 4", len(pts))
	}
	p := pts[0]
	if p.Epoch != 0 || p.Cycle != 3 || p.Kind != "router" || p.ID != 3 ||
		p.Name != "r3" || p.Row != 0 || p.Col != 3 || p.Field != "writes" || p.Value != 12 {
		t.Errorf("first point = %+v", p)
	}
	if _, err := scanAll(strings.NewReader("not,a,metrics\nfile,0,0\n")); err == nil {
		t.Error("non-metrics CSV accepted")
	}
}

// scanAll collects every point ScanMetricsCSV yields, or its error.
func scanAll(rd io.Reader) ([]MetricPoint, error) {
	var pts []MetricPoint
	err := ScanMetricsCSV(rd, func(p *MetricPoint) error {
		pts = append(pts, *p)
		return nil
	})
	return pts, err
}

// A damaged metrics CSV must be refused with the damaged place named; it
// used to parse, every unreadable number turning into a zero on the heatmap.
func TestReadMetricsCSVRejectsDamagedInput(t *testing.T) {
	for _, tt := range damagedMetricsCSVs {
		t.Run(tt.name, func(t *testing.T) {
			pts, err := scanAll(strings.NewReader(tt.in))
			var ce *MetricsCSVError
			if !errors.As(err, &ce) {
				t.Fatalf("ScanMetricsCSV yielded %v points, err %v; want a *MetricsCSVError", len(pts), err)
			}
			if ce.Row != tt.row || ce.Column != tt.column {
				t.Errorf("error at row %d column %q (%v), want row %d column %q", ce.Row, ce.Column, err, tt.row, tt.column)
			}
		})
	}
	if _, err := scanAll(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := scanAll(strings.NewReader(goodCSVHeader + "0,3,\"router,3\n")); err == nil {
		t.Error("unterminated quote accepted")
	}
	// The derived per_cycle column is optional.
	pts, err := scanAll(strings.NewReader("epoch,cycle,kind,id,name,row,col,field,value\n0,3,router,3,r3,0,3,writes,12\n"))
	if err != nil || len(pts) != 1 || pts[0].Value != 12 {
		t.Errorf("nine-column CSV: points %v, err %v", pts, err)
	}
}

// chromeTrace mirrors the JSON layout Perfetto's Chrome-trace importer
// reads; the exporter's output must unmarshal into it.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Pid  int64          `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeTraceExport(t *testing.T) {
	c := New(Config{TraceSample: 1}, 1)
	c.Start()
	p := c.ShardProbe(0)
	tag := flit.NewTag(1, 2)
	p.Emit(Event{Cycle: 10, Packet: 42, Tag: tag, Kind: EvInject, Loc: 0, Aux: 5})
	p.Emit(Event{Cycle: 12, Packet: 42, Tag: tag, Kind: EvRC, Loc: 0})
	p.Emit(Event{Cycle: 14, Packet: 42, Tag: tag, Kind: EvGatherUpload, Loc: 3, Aux: 2})
	p.Emit(Event{Cycle: 18, Packet: 42, Tag: tag, Kind: EvEject, Loc: 5, Aux: 4})
	sp := c.SerialProbe()
	sp.Emit(Event{Cycle: 0, Kind: EvPhaseStart, Tag: tag, Loc: 1, Aux: 2})
	sp.Emit(Event{Cycle: 30, Kind: EvPhaseDrained, Tag: tag, Loc: 1, Aux: 2})
	rep := c.Harvest(31)

	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	counts := map[string]int{}
	for _, ev := range tr.TraceEvents {
		counts[ev.Ph]++
	}
	// One async span pair, two stage slices (inject, rc), one collective
	// instant, one phase slice, plus metadata records.
	if counts["b"] != 1 || counts["e"] != 1 {
		t.Errorf("span begin/end = %d/%d, want 1/1", counts["b"], counts["e"])
	}
	if counts["X"] != 3 {
		t.Errorf("%d complete slices, want 3 (2 stages + 1 phase)", counts["X"])
	}
	if counts["i"] != 1 {
		t.Errorf("%d instants, want 1 gather-upload", counts["i"])
	}
	if counts["M"] == 0 {
		t.Error("no metadata records")
	}
	var sawPhase, sawJobArg bool
	for _, ev := range tr.TraceEvents {
		if ev.Name == "job1/phase2" && ev.Ph == "X" && ev.Ts == 0 && ev.Tid == 0 {
			sawPhase = true
		}
		if ev.Name == "packet" && ev.Ph == "b" {
			// Tag job fields are offset by one (0 = untagged), so tag
			// job 1 is scheduler job 0.
			if job, ok := ev.Args["job"].(float64); !ok || int(job) != 0 {
				t.Errorf("packet span job arg = %v, want 0", ev.Args["job"])
			}
			sawJobArg = true
		}
	}
	if !sawPhase {
		t.Error("phase span job1/phase2 missing from schedule track")
	}
	if !sawJobArg {
		t.Error("packet begin span missing")
	}

	// Byte determinism: a second export of the same report is identical.
	var buf2 bytes.Buffer
	if err := rep.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two exports of one report differ")
	}
}

// synthSource is one source of synthFabric with a known counter
// sequence: in epoch e it moves when its hash says so, and then each
// delta field advances by, and each gauge reads, a value in [-2, 6]
// (zero included, so a moving source can still hold zero fields).
type synthSource struct {
	shards []int // the probes the source is registered on; > 1 splits it
	meta   SourceMeta
	fields []Field
	state  [][]int64 // per registration: the cumulative values read
}

func synthHash(a, b, c int) uint64 {
	x := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F ^ uint64(c)*0x165667B19E3779F9
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	return x ^ x>>32
}

// synthValue is field f's per-epoch value (the delta, or the gauge
// reading) for registration part of source s in epoch e, at the given
// share of moving sources in percent.
func synthValue(s, part, f, e, pct int) int64 {
	if synthHash(s, e, -1)%100 >= uint64(pct) {
		return 0
	}
	return int64(synthHash(s*8+part, e, f)%9) - 2
}

// synthFabric registers sources shaped like an 8x8 fabric's — 64 routers
// (4 deltas, 2 gauges), 224 links as a flit and a credit source each, 64
// NICs, 8 sinks, and a one-gauge pool split across every shard — on a
// collector with the given shard count.
func synthFabric(cfg Config, shards int) (*Collector, []*synthSource) {
	c := New(cfg, shards)
	var srcs []*synthSource
	add := func(kind string, id int, fields []Field, on ...int) {
		ss := &synthSource{shards: on, meta: SourceMeta{Kind: kind, ID: id, Row: -1, Col: -1}, fields: fields}
		for range on {
			ss.state = append(ss.state, make([]int64, len(fields)))
		}
		name := fmt.Sprintf("%s%d", kind, id)
		for part, sh := range on {
			c.AddSource(sh, ss.meta, fields, fnSource{name, func(dst []int64) { copy(dst, ss.state[part]) }})
		}
		srcs = append(srcs, ss)
	}
	router := []Field{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}, {Name: "occ", Gauge: true}, {Name: "max", Gauge: true}}
	nic := []Field{{Name: "pi"}, {Name: "fi"}, {Name: "pe"}, {Name: "fe"}, {Name: "q", Gauge: true}}
	for i := 0; i < 64; i++ {
		add("router", i, router, i*shards/64)
	}
	for i := 0; i < 224; i++ {
		add("link", i, []Field{{Name: "flits"}}, i*shards/224)
		add("link", i, []Field{{Name: "credits"}}, (223-i)*shards/224)
	}
	for i := 0; i < 64; i++ {
		add("nic", i, nic, i*shards/64)
	}
	for i := 0; i < 8; i++ {
		add("sink", i, []Field{{Name: "pe"}, {Name: "fe"}, {Name: "buf", Gauge: true}}, i*shards/8)
	}
	var all []int
	for s := 0; s < shards; s++ {
		all = append(all, s)
	}
	add("pool", 0, []Field{{Name: "live", Gauge: true}}, all...)
	c.Start()
	return c, srcs
}

// runSynth drives epochs 0..epochs-1 of synthFabric (4 cycles each) with
// pct(e) percent of the sources moving in epoch e, harvests, and checks
// every retained (source, epoch) against the known sequence.
func runSynth(t *testing.T, cfg Config, shards, epochs int, pct func(e int) int) *Collector {
	t.Helper()
	c, srcs := synthFabric(cfg, shards)
	var ecs []*EpochCommitter
	for s := 0; s < shards; s++ {
		ecs = append(ecs, c.EpochCommitter(s))
	}
	for e := 0; e < epochs; e++ {
		for si, ss := range srcs {
			for part := range ss.state {
				for f, fd := range ss.fields {
					v := synthValue(si, part, f, e, pct(e))
					if fd.Gauge {
						ss.state[part][f] = v
					} else {
						ss.state[part][f] += v
					}
				}
			}
		}
		for _, ec := range ecs {
			ec.Commit(int64(4*e + 3))
		}
	}
	rep := c.Harvest(int64(4 * epochs))
	if len(rep.Sources) != len(srcs) {
		t.Fatalf("harvested %d series, want one per source = %d", len(rep.Sources), len(srcs))
	}
	series := map[string]*SourceSeries{}
	for i := range rep.Sources {
		ss := &rep.Sources[i]
		series[fmt.Sprintf("%s/%d/%s", ss.Meta.Kind, ss.Meta.ID, ss.Fields[0].Name)] = ss
	}
	first := epochs - len(rep.EpochIndex)
	for si, src := range srcs {
		ss := series[fmt.Sprintf("%s/%d/%s", src.meta.Kind, src.meta.ID, src.fields[0].Name)]
		if ss == nil {
			t.Fatalf("source %+v missing from the report", src.meta)
		}
		for i := range rep.EpochIndex {
			e := first + i
			if rep.EpochIndex[i] != int64(e) {
				t.Fatalf("retained epoch %d is %d, want %d", i, rep.EpochIndex[i], e)
			}
			got := ss.At(i)
			for f := range src.fields {
				want := int64(0)
				for part := range src.state {
					want += synthValue(si, part, f, e, pct(e))
				}
				if got[f] != want {
					t.Fatalf("%s/%d field %s epoch %d: At = %d, want %d", src.meta.Kind, src.meta.ID, src.fields[f].Name, e, got[f], want)
				}
			}
		}
	}
	return c
}

// ringBytes returns what the collector's rings hold and what they would
// hold at 8 bytes per field, the int64 rows that packing replaced.
func ringBytes(c *Collector) (held, words int) {
	for _, p := range c.probes {
		for _, row := range p.ring {
			held += cap(row.vals)
			words += 8 * len(p.cur)
		}
	}
	return held, words
}

// TestSparseRowsMatchDense: a packed ring row keeps only the sources that
// moved, their fields as varints, and At reads every (source, epoch) back
// as the known delta or gauge value, whether few sources moved or all.
func TestSparseRowsMatchDense(t *testing.T) {
	t.Run("quiet", func(t *testing.T) {
		c := runSynth(t, Config{Epoch: 4}, 1, 40, func(int) int { return 3 })
		held, words := ringBytes(c)
		t.Logf("quiet 8x8: rows hold %d bytes, 8 bytes per field %d", held, words)
		if 3*held >= words {
			t.Errorf("quiet 8x8: rows hold %d bytes, want under a third of 8 bytes per field, %d", held, words)
		}
	})
	t.Run("saturated", func(t *testing.T) {
		c := runSynth(t, Config{Epoch: 4}, 1, 40, func(int) int { return 100 })
		for _, p := range c.probes {
			for i, row := range p.ring {
				if len(row.vals) >= 8*len(p.cur) {
					t.Fatalf("saturated row %d is %d bytes, want under 8 bytes per field, %d", i, len(row.vals), 8*len(p.cur))
				}
			}
		}
		held, words := ringBytes(c)
		t.Logf("saturated 8x8: rows hold %d bytes, 8 bytes per field %d", held, words)
	})
	t.Run("wrapping window", func(t *testing.T) {
		// Rows grow past their slot's capacity and shrink back into it.
		c := runSynth(t, Config{Epoch: 4}, 1, maxEpochs+37, func(e int) int { return []int{0, 40, 5, 100, 15, 70, 1}[e%7] })
		p := c.probes[0]
		shrunk := 0
		for _, row := range p.ring {
			if len(row.vals) < cap(row.vals) {
				shrunk++
			}
		}
		if len(p.ring) != maxEpochs || shrunk == 0 {
			t.Errorf("ring holds %d rows, %d of them shorter than their slot; want maxEpochs = %d rows, some reused by a shorter one", len(p.ring), shrunk, maxEpochs)
		}
	})
	t.Run("two shards", func(t *testing.T) {
		runSynth(t, Config{Epoch: 4}, 2, 30, func(e int) int { return 10 + 20*(e%3) })
	})
}

// fuzzValues are the field values FuzzEpochRows draws from besides raw
// eight-byte ones: zero, the one-, two-, four- and eight-byte varint
// edges, and both extremes.
var fuzzValues = []int64{0, 1, -1, 63, -64, 64, -65, 8191, -8192, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

// FuzzEpochRows: whatever the sources, values and presence pattern, At
// returns exactly what snapshot recorded. The input picks the source count
// (63, 64 and 65 straddle a bitmap word), one or two shards, whether the
// run straddles the end of the maxEpochs window (a few epochs short of it
// to a few past, wrapping the ring) or stays short, the epoch count, and
// from its bytes, per (epoch,
// source), whether the source moved and then each field's value: zero,
// one of fuzzValues, a small signed one or eight raw bytes. One field in
// three is a gauge, recorded as read; the rest are deltas of a counter
// that wraps as int64 arithmetic does, so any value, the extremes
// included, is recorded as drawn. With two shards a split source,
// registered on both, reads back as the sum of its parts.
func FuzzEpochRows(f *testing.F) {
	f.Add(uint8(63), false, true, uint8(7), []byte{1, 1, 9, 11, 3, 0, 1, 2, 200, 0, 1, 3, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(64), true, true, uint8(9), []byte{1, 5, 12, 0, 1, 1, 7, 255, 2, 129})
	f.Add(uint8(65), true, false, uint8(4), []byte{3, 1, 10, 1, 11, 1, 12, 0, 0, 2})
	f.Add(uint8(0), false, false, uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, nsrc uint8, twoShards, wrap bool, epochs uint8, data []byte) {
		sources, shards := 1+int(nsrc)%130, 1
		if twoShards {
			shards = 2
		}
		run := 1 + int(epochs)%16
		if wrap {
			run += maxEpochs - 8
		}
		at := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			at++
			return data[(at-1)%len(data)]
		}
		draw := func() int64 {
			switch b := next(); b % 4 {
			case 1:
				return fuzzValues[int(next())%len(fuzzValues)]
			case 2:
				return int64(int8(next()))
			case 3:
				var raw [8]byte
				for i := range raw {
					raw[i] = next()
				}
				return int64(le.Uint64(raw[:]))
			}
			return 0
		}

		// A registration reads state; want[e][f] is what epoch e records.
		type part struct {
			fields []Field
			state  []int64
			want   [][]int64
		}
		c := New(Config{Epoch: 1}, shards)
		var parts []*part
		register := func(sh int, meta SourceMeta, k int) *part {
			p := &part{state: make([]int64, k)}
			for j := 0; j < k; j++ {
				p.fields = append(p.fields, Field{Name: fmt.Sprintf("f%d", j), Gauge: (meta.ID+j)%3 == 2})
			}
			c.AddSource(sh, meta, p.fields, fnSource{read: func(dst []int64) { copy(dst, p.state) }})
			parts = append(parts, p)
			return p
		}
		for i := 0; i < sources; i++ {
			register(i%shards, SourceMeta{Kind: "src", ID: i}, 1+i%3)
		}
		if shards == 2 {
			split := SourceMeta{Kind: "split", ID: 0}
			register(0, split, 2)
			register(1, split, 2)
		}
		c.Start()
		var ecs []*EpochCommitter
		for s := 0; s < shards; s++ {
			ecs = append(ecs, c.EpochCommitter(s))
		}
		for e := 0; e < run; e++ {
			for _, p := range parts {
				rec := make([]int64, len(p.fields))
				if next()&1 == 1 {
					for j, f := range p.fields {
						rec[j] = draw()
						if f.Gauge {
							p.state[j] = rec[j]
						} else {
							p.state[j] += rec[j]
						}
					}
				} else {
					for j, f := range p.fields {
						if f.Gauge {
							p.state[j] = 0
						}
					}
				}
				p.want = append(p.want, rec)
			}
			for _, ec := range ecs {
				ec.Commit(int64(e))
			}
		}

		rep := c.Harvest(int64(run))
		kept := min(run, maxEpochs)
		if len(rep.EpochIndex) != kept || rep.EpochIndex[0] != int64(run-kept) {
			t.Fatalf("%d epochs in a window of %d: retained %v", run, maxEpochs, rep.EpochIndex)
		}
		if want := sources + shards - 1; len(rep.Sources) != want {
			t.Fatalf("harvested %d series, want %d", len(rep.Sources), want)
		}
		for i := range rep.Sources {
			ss := &rep.Sources[i]
			var of []*part
			if ss.Meta.Kind == "split" {
				of = parts[sources:]
			} else {
				of = parts[ss.Meta.ID : ss.Meta.ID+1]
			}
			for r := range rep.EpochIndex {
				e := run - kept + r
				got := ss.At(r)
				for j := range got {
					want := int64(0)
					for _, p := range of {
						want += p.want[e][j]
					}
					if got[j] != want {
						t.Fatalf("%s %d field %d, epoch %d: At = %d, snapshot recorded %d", ss.Meta.Kind, ss.Meta.ID, j, e, got[j], want)
					}
				}
			}
		}
	})
}
