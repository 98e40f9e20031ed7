// Package telemetry is the simulator's observability layer (DESIGN.md
// §11): an epoch metrics collector that snapshots deltas of the counters
// the components already keep into bounded per-shard time-series rings
// whose rows are allocated as the run reaches them, and a flit-lifecycle
// tracer that records sampled per-packet pipeline events into bounded
// per-shard buffers. Both are off by default
// and purely observational — probes read component state and write only
// their own buffers, so enabling telemetry never changes a schedule, and
// a disabled network carries no probe at all (every hook is behind a
// nil-check).
//
// Ownership follows the sharded engine's partition (DESIGN.md §9): each
// shard gets its own Probe, written only by the goroutine that ticks and
// commits that shard, plus one serial probe for events emitted on the
// serial sub-phase (workload phase boundaries). The epoch snapshot runs
// as the last committer of each shard, after every counter write the
// shard performs that cycle, so the merged series is identical for every
// shard count, sequential engine included.
package telemetry

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"

	"gathernoc/internal/flit"
	"gathernoc/internal/sim"
)

// Config enables the telemetry subsystem. The zero value disables
// everything; a Config reaches the network through noc.Config.Telemetry.
type Config struct {
	// Epoch is the metrics snapshot period in cycles; <= 0 disables the
	// epoch collector (the tracer may still run).
	Epoch int64
	// TraceSample enables the flit-lifecycle tracer, sampling one in N
	// packets (by a hash of the packet id, so the sampled set is
	// identical for every shard count); 0 disables tracing, 1 traces
	// every packet.
	TraceSample uint64
}

// The probes' bounds.
const (
	// maxEpochs bounds each probe's time-series ring (256K cycles of
	// history at the default period); older epochs are overwritten,
	// keeping the most recent window. A ring row is allocated the first
	// time the run reaches its slot and reused once the ring wraps, and it
	// holds only the sources that moved in its epoch, their fields as
	// varints (DESIGN.md §11): a quiet epoch costs a few bytes per 64
	// sources, a busy one a byte or two per field. So memory follows what
	// was recorded and maxEpochs is only the ceiling.
	maxEpochs = 1024
	// maxEvents bounds each probe's event buffer; the buffer grows as
	// events arrive, so the bound is a ceiling, not an allocation. Events
	// past it are dropped and counted in Report.DroppedEvents.
	maxEvents = 65536
)

// DefaultConfig returns the default-sampling telemetry configuration the
// CLIs enable: 256-cycle epochs, one traced packet in 64.
func DefaultConfig() Config {
	return Config{Epoch: 256, TraceSample: 64}
}

// Enabled reports whether the config turns any telemetry on.
func (c Config) Enabled() bool { return c.Epoch > 0 || c.TraceSample > 0 }

// EventKind identifies one step of a packet's lifecycle (or a workload
// phase boundary). The numeric order is part of the canonical event sort,
// so kinds follow pipeline order.
type EventKind uint8

const (
	// EvInject: the packet entered its source injection queue (back-dated
	// from the ejected packet's InjectCycle; Loc = source node, Aux =
	// destination node).
	EvInject EventKind = iota + 1
	// EvNetwork: the head flit left the NIC into the router (back-dated;
	// Loc = source node).
	EvNetwork
	// EvRC: route computation completed for the head at a router
	// (Loc = router node).
	EvRC
	// EvVA: the packet secured downstream VCs on every branch
	// (Loc = router node).
	EvVA
	// EvSA: the head flit won switch allocation and crossed toward an
	// output (Loc = router node, Aux = output port).
	EvSA
	// EvLink: a link delivered the head flit downstream (Loc = the
	// downstream endpoint's node or sink id).
	EvLink
	// EvHead: the head flit reached its ejection point (back-dated;
	// Loc = ejector id).
	EvHead
	// EvEject: the tail drained and the packet completed reassembly
	// (Loc = ejector id, Aux = hop count).
	EvEject
	// EvGatherUpload: a passing gather packet picked up a payload
	// (Loc = router node, Aux = payload source node).
	EvGatherUpload
	// EvReduceMerge: an INA merge folded an operand into a passing
	// accumulate packet (Loc = router node, Aux = operand source node).
	EvReduceMerge
	// EvPhaseStart / EvPhaseInjected / EvPhaseDrained are workload phase
	// boundaries emitted on the serial sub-phase (Loc = job index,
	// Aux = phase index; Packet = 0).
	EvPhaseStart
	EvPhaseInjected
	EvPhaseDrained
	// EvFaultDrop: fault injection dropped a packet at a link (Loc =
	// downstream node, Aux = VC). Emitted on the sampled head only.
	EvFaultDrop
	// EvFaultCorrupt: fault injection corrupted a packet at a link
	// (Loc = downstream node, Aux = VC); the receiver will discard it.
	EvFaultCorrupt
	// EvRetransmit: a NIC's end-to-end reliability layer re-sent a
	// timed-out payload (Loc = source node, Aux = payload Seq; Packet =
	// the new packet's id).
	EvRetransmit
	// EvStall: the stall watchdog fired (serial probe; Loc = 0, Aux =
	// the no-progress window in cycles; Packet = 0).
	EvStall
)

// String returns the kind's Chrome-trace stage label.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvNetwork:
		return "network"
	case EvRC:
		return "rc"
	case EvVA:
		return "va"
	case EvSA:
		return "sa"
	case EvLink:
		return "link"
	case EvHead:
		return "head"
	case EvEject:
		return "eject"
	case EvGatherUpload:
		return "gather-upload"
	case EvReduceMerge:
		return "ina-merge"
	case EvPhaseStart:
		return "phase-start"
	case EvPhaseInjected:
		return "phase-injected"
	case EvPhaseDrained:
		return "phase-drained"
	case EvFaultDrop:
		return "fault-drop"
	case EvFaultCorrupt:
		return "fault-corrupt"
	case EvRetransmit:
		return "retransmit"
	case EvStall:
		return "stall"
	}
	return "unknown"
}

// Event is one recorded lifecycle step. Events are fixed-size values so
// the per-probe buffers are flat arrays.
type Event struct {
	// Cycle is when the step happened (ejection-side steps of a packet
	// are back-dated from the timestamps the flits carry).
	Cycle int64
	// Packet is the network-unique packet id (0 for phase events).
	Packet uint64
	// Tag carries the workload job/phase (zero for untagged traffic).
	Tag flit.Tag
	// Kind is the lifecycle step.
	Kind EventKind
	// Loc locates the step: a node id, an ejector/sink id, or a job
	// index for phase events.
	Loc int32
	// Aux is kind-specific (see the EventKind docs).
	Aux int64
}

// Field names one metric of a source. Gauge fields snapshot the current
// value each epoch; non-gauge fields snapshot the delta since the
// previous epoch.
type Field struct {
	Name  string
	Gauge bool
}

// SourceMeta identifies one metrics source in exports: a router, link,
// NIC, sink or pool, with its grid position where applicable (Row/Col are
// -1 for sources without one). The source's name is its own to format
// (see Source).
type SourceMeta struct {
	Kind string
	ID   int
	Row  int
	Col  int
}

// A Source is one metrics source's counters and name. Read writes the
// counters' current cumulative values into every element of dst
// (len(dst) == len(fields)); it runs on the owning shard's goroutine at
// epoch boundaries, after all of that shard's writes for the cycle.
// AppendName appends the source's name to dst and is called at export
// only: a fabric registers thousands of sources, one per component (a
// component can be its own Source), and formats none of their names to do
// so.
type Source interface {
	Read(dst []int64)
	AppendName(dst []byte) []byte
}

type source struct {
	meta   SourceMeta
	fields []Field
	src    Source
}

// Probe is the single-writer recording endpoint for one shard (or the
// serial sub-phase). Components hold a *Probe and guard every hook with a
// nil-check, so a telemetry-off network pays nothing.
type Probe struct {
	c       *Collector
	sources []source

	// Event buffer: a flat slice that grows as events arrive, up to
	// maxEvents.
	events  []Event
	dropped uint64

	// Epoch ring (see Collector.Harvest for the merge): it grows by one
	// row each time the run reaches a slot for the first time, up to
	// maxEpochs rows, and from then on head wraps and rows are overwritten.
	// Source i's fields are cur[bounds[i]:bounds[i+1]] (and prev[...] for
	// its delta fields' cumulative values at the last snapshot).
	bounds    []int
	cur, prev []int64
	scratch   []byte // the row being packed, copied into its slot after
	ring      []epochRow
	head      int   // next slot to write
	lastEnd   int64 // last snapshotted end cycle (-1 before the first)
}

// epochRow is one ring slot: an epoch's index, its inclusive end cycle and
// the row packRow made of the values snapshotted for it.
type epochRow struct {
	index, end int64
	vals       []byte
}

// packRow appends to dst one packed row: source i's fields are
// vals[bounds[i]:bounds[i+1]], and the row holds the source only when one
// of them is non-zero. With words = ceil(sources/64) and present sources
// held, the row's bytes are laid out as:
//
//	[0, 8*words)                    presence bitmap, little-endian uint64 words, bit i set when source i moved
//	[8*words, 12*words)             rank: uint32 count of the sources present before each bitmap word
//	[12*words, 12*words+4*present)  each present source's uint32 byte offset into the row
//	[..., end)                      the present sources' fields, zig-zag varints
//
// Offsets count from the row's first byte, so several rows can share one
// buffer. packRow is the only encoder and SourceSeries.At the only decoder.
func packRow(dst []byte, vals []int64, bounds []int) []byte {
	sources := len(bounds) - 1
	words, present := (sources+63)/64, 0
	for i := 0; i < sources; i++ {
		if moved(vals[bounds[i]:bounds[i+1]]) {
			present++
		}
	}
	// Every header byte is written below, the bitmap and ranks per word
	// and an offset per present source.
	base, header := len(dst), 12*words+4*present
	dst = slices.Grow(dst, header)[:base+header]
	k := 0
	for w := 0; w < words; w++ {
		le.PutUint32(dst[base+8*words+4*w:], uint32(k))
		var word uint64
		for i := 64 * w; i < min(64*w+64, sources); i++ {
			f := vals[bounds[i]:bounds[i+1]]
			if !moved(f) {
				continue
			}
			word |= 1 << (i & 63)
			le.PutUint32(dst[base+12*words+4*k:], uint32(len(dst)-base))
			k++
			for _, v := range f {
				dst = binary.AppendVarint(dst, v)
			}
		}
		le.PutUint64(dst[base+8*w:], word)
	}
	return dst
}

var le = binary.LittleEndian

func moved(f []int64) bool {
	for _, v := range f {
		if v != 0 {
			return true
		}
	}
	return false
}

// Sampled reports whether packet id pid is in the traced sample. The
// predicate hashes the id, so it is independent of the shard count (ids
// are striped per NIC) and spreads the sample across sources.
func (p *Probe) Sampled(pid uint64) bool {
	n := p.c.cfg.TraceSample
	if n <= 1 {
		return n == 1
	}
	x := pid * 0x9E3779B97F4A7C15
	x ^= x >> 33
	return x%n == 0
}

// Emit records one event; when the buffer holds maxEvents the event is
// dropped and counted. Callers must hold the probe's single-writer role
// (the owning shard's goroutine, or the serial sub-phase).
func (p *Probe) Emit(ev Event) {
	if len(p.events) == cap(p.events) {
		if len(p.events) >= maxEvents {
			p.dropped++
			return
		}
		grown := make([]Event, len(p.events), min(max(2*cap(p.events), 256), maxEvents))
		copy(grown, p.events)
		p.events = grown
	}
	p.events = append(p.events, ev)
}

// snapshot records one epoch row: every source's counters are read and
// delta-ed in place (gauges are kept as read), the row is packed into the
// probe's scratch, and it is copied into the next ring slot, whose row is
// reused when the packed row fits in it and otherwise replaced by one of
// exactly the packed row's length.
func (p *Probe) snapshot(epoch, endCycle int64) {
	p.lastEnd = endCycle
	if len(p.cur) == 0 {
		return
	}
	for i := range p.sources {
		s := &p.sources[i]
		lo, hi := p.bounds[i], p.bounds[i+1]
		cur, prev := p.cur[lo:hi], p.prev[lo:hi]
		s.src.Read(cur)
		for j, f := range s.fields {
			if !f.Gauge {
				v := cur[j]
				cur[j] = v - prev[j]
				prev[j] = v
			}
		}
	}
	p.scratch = packRow(p.scratch[:0], p.cur, p.bounds)

	if p.head == len(p.ring) {
		p.ring = append(p.ring, epochRow{})
	}
	row := &p.ring[p.head]
	p.head++
	if p.head == maxEpochs {
		p.head = 0
	}
	row.index, row.end = epoch, endCycle
	if n := len(p.scratch); cap(row.vals) >= n {
		row.vals = row.vals[:n]
	} else {
		row.vals = make([]byte, n)
	}
	copy(row.vals, p.scratch)
}

// EpochCommitter is the per-shard component that triggers epoch
// snapshots. The network registers it as the last committer of its shard,
// so it observes every counter the shard wrote that cycle. Between epoch
// boundaries its commit does nothing, so with its wake handle attached it
// sleeps from one boundary to the next and an observed fabric can still
// jump over its quiet stretches.
type EpochCommitter struct {
	p     *Probe
	epoch int64
	wake  *sim.Handle
	now   int64 // the cycle of the latest commit
}

// SetWake attaches the handle of the committer's engine registration.
func (ec *EpochCommitter) SetWake(h *sim.Handle) { ec.wake = h }

// Commit snapshots an epoch row when cycle is the epoch's last cycle.
func (ec *EpochCommitter) Commit(cycle int64) {
	ec.now = cycle
	if (cycle+1)%ec.epoch == 0 {
		ec.p.snapshot((cycle+1)/ec.epoch-1, cycle)
	}
}

// Idle implements sim.Idler for a committer that holds its wake handle, and
// arms the timer for the last cycle of the epoch after the latest commit's.
func (ec *EpochCommitter) Idle() bool {
	if ec.wake == nil {
		return false
	}
	ec.wake.WakeAt(((ec.now+1)/ec.epoch+1)*ec.epoch - 1)
	return true
}

// Collector owns the per-shard probes and merges them at harvest.
// Construction order: New, AddSource/ShardProbe/SerialProbe wiring, then
// Start (which sizes every probe) before the first cycle runs.
type Collector struct {
	cfg    Config
	probes []*Probe // [0..shards-1] shard probes, [shards] serial
}

// New returns a collector for a fabric partitioned into shards (>= 1;
// sequential networks pass 1).
func New(cfg Config, shards int) *Collector {
	if shards < 1 {
		shards = 1
	}
	c := &Collector{cfg: cfg, probes: make([]*Probe, shards+1)}
	for i := range c.probes {
		c.probes[i] = &Probe{c: c}
	}
	return c
}

// Tracing reports whether the flit-lifecycle tracer is on.
func (c *Collector) Tracing() bool { return c.cfg.TraceSample > 0 }

// ShardProbe returns shard s's single-writer probe.
func (c *Collector) ShardProbe(s int) *Probe { return c.probes[s] }

// SerialProbe returns the probe for events emitted on the serial
// sub-phase (workload phase boundaries), where cross-shard order is
// already deterministic.
func (c *Collector) SerialProbe() *Probe { return c.probes[len(c.probes)-1] }

// AddSource registers one metrics source with shard s's probe. Must be
// called before Start; src is read on s's goroutine at epoch boundaries.
// A source whose counters are split across shards (the flit pool's
// per-shard views) is registered once per shard with the same meta and
// fields, each Read covering that shard's part; Harvest sums the parts
// into one series.
func (c *Collector) AddSource(s int, meta SourceMeta, fields []Field, src Source) {
	p := c.probes[s]
	p.sources = append(p.sources, source{meta: meta, fields: fields, src: src})
}

// ReserveSources makes room for n more sources in shard s's probe, so that
// registering them allocates nothing.
func (c *Collector) ReserveSources(s, n int) {
	p := c.probes[s]
	p.sources = slices.Grow(p.sources, n)
}

// EpochCommitter returns shard s's snapshot trigger, or nil when the
// epoch collector is disabled. The network registers it after the shard's
// links so the snapshot sees the cycle's complete counter state.
func (c *Collector) EpochCommitter(s int) *EpochCommitter {
	if c.cfg.Epoch <= 0 {
		return nil
	}
	return &EpochCommitter{p: c.probes[s], epoch: c.cfg.Epoch}
}

// Start bounds every probe's event buffer, lays its sources' snapshot
// values out in two flat arrays and sizes its epoch ring. Call once, after
// all sources are registered and before the first cycle; from then on the
// tracer's buffer doubles as it fills, up to maxEvents, and the epoch
// collector allocates one ring row per probe per epoch until the ring is
// full, and after that only when an epoch's row outgrows the one in its
// slot.
func (c *Collector) Start() {
	for _, p := range c.probes {
		p.lastEnd = -1
		if c.cfg.Epoch > 0 {
			p.bounds = make([]int, len(p.sources)+1)
			for i := range p.sources {
				p.bounds[i+1] = p.bounds[i] + len(p.sources[i].fields)
			}
			stride := p.bounds[len(p.sources)]
			p.cur, p.prev = make([]int64, stride), make([]int64, stride)
		}
	}
}

// SourceSeries is one source's merged epoch series: At(e) holds the
// source's field values for the e-th retained epoch (aligned with
// Report.EpochIndex). The series reads packed rows (see packRow): Harvest
// hands it the ring rows of the probe that recorded the source, shared by
// every source of that probe, and a split source's sums get packed rows of
// their own.
type SourceSeries struct {
	Meta   SourceMeta
	Fields []Field

	from  Source   // what names the series
	rows  [][]byte // one packed row per retained epoch, oldest first
	src   int      // the source's index in the rows' presence bitmaps
	words int      // the rows' presence-bitmap words
	buf   []int64  // what At decodes into, len(Fields) long
}

// At returns the source's field values for the e-th retained epoch, in
// constant time per field: a bit test, the word's rank plus a popcount for
// the source's offset, then its varints. The values are decoded into a
// buffer the series owns, so the slice is valid until the next At on this
// series (or a copy of it): read it, do not keep it, and do not call At
// on one series from two goroutines.
func (ss *SourceSeries) At(e int) []int64 {
	row, w := ss.rows[e], ss.src>>6
	word, bit := le.Uint64(row[8*w:]), uint64(1)<<(ss.src&63)
	if word&bit == 0 {
		clear(ss.buf)
		return ss.buf
	}
	k := int(le.Uint32(row[8*ss.words+4*w:])) + bits.OnesCount64(word&(bit-1))
	p := row[le.Uint32(row[12*ss.words+4*k:]):]
	for j := range ss.buf {
		v, n := binary.Varint(p)
		ss.buf[j], p = v, p[n:]
	}
	return ss.buf
}

// packedSeries returns a series over packed rows of its own: vals holds
// the source's fields epoch after epoch, and each epoch becomes a
// one-source row, every row in one allocation.
func packedSeries(meta SourceMeta, fields []Field, src Source, epochs int, vals []int64) SourceSeries {
	// A one-source row is at most one bitmap word, its rank, one offset
	// and k varints long.
	k := len(fields)
	buf := make([]byte, 0, epochs*(8+4+4+binary.MaxVarintLen64*k))
	rows := make([][]byte, epochs)
	bounds := []int{0, k}
	for e := range rows {
		start := len(buf)
		buf = packRow(buf, vals[e*k:(e+1)*k], bounds)
		rows[e] = buf[start:len(buf):len(buf)]
	}
	return SourceSeries{Meta: meta, Fields: fields, from: src, rows: rows, words: 1, buf: make([]int64, k)}
}

// Report is a harvested run's telemetry: the merged epoch series in
// canonical source order and the canonically sorted trace events.
type Report struct {
	// Epoch is the snapshot period; 0 when the epoch collector was off.
	Epoch int64
	// EpochIndex[i] is the i-th retained epoch's index; EpochEnd[i] its
	// inclusive end cycle (the final epoch may be partial).
	EpochIndex []int64
	EpochEnd   []int64
	// Sources holds one series per registered source, sorted by
	// (kind, id, first field name).
	Sources []SourceSeries
	// Events holds every recorded trace event, sorted by
	// (cycle, packet, kind, loc, aux) — identical for every shard count
	// as long as no probe overflowed.
	Events []Event
	// DroppedEvents counts events lost to full buffers (overflowing runs
	// are still usable but no longer shard-count-invariant).
	DroppedEvents uint64
}

// Harvest flushes a final partial epoch (when cycles ran past the last
// boundary), merges the per-shard rings in canonical order, and sorts the
// event streams. Call once, after the run, from the coordinating
// goroutine. finalCycle is the engine's completed-cycle count. The series
// read the probes' packed ring rows in place, and every series' At buffer
// is cut from one allocation, so what Harvest allocates follows the probes
// and sources, not the epochs; only a split source's sums get rows of
// their own. The report reads the rings it was harvested from: it is valid
// until the run goes on.
func (c *Collector) Harvest(finalCycle int64) *Report {
	r := &Report{Epoch: c.cfg.Epoch}
	if c.cfg.Epoch > 0 && finalCycle > 0 {
		for _, p := range c.probes {
			if p.lastEnd < finalCycle-1 {
				p.snapshot((finalCycle-1)/c.cfg.Epoch, finalCycle-1)
			}
		}
	}

	// Epoch axis: every snapping probe recorded the same slots; take the
	// axis from the first probe with a ring.
	for _, p := range c.probes {
		if len(p.cur) == 0 {
			continue
		}
		r.EpochIndex = make([]int64, len(p.ring))
		r.EpochEnd = make([]int64, len(p.ring))
		for i := range p.ring {
			row := &p.ring[p.slotAt(i)]
			r.EpochIndex[i] = row.index
			r.EpochEnd[i] = row.end
		}
		break
	}

	sources, fields := 0, 0
	for _, p := range c.probes {
		sources += len(p.sources)
		for i := range p.sources {
			fields += len(p.sources[i].fields)
		}
	}
	r.Sources = make([]SourceSeries, 0, sources)
	bufs := make([]int64, fields)
	for _, p := range c.probes {
		// One row list per probe, oldest epoch first, shared by its sources.
		rows := make([][]byte, len(p.ring))
		for e := range rows {
			rows[e] = p.ring[p.slotAt(e)].vals
		}
		words := (len(p.sources) + 63) / 64
		for i := range p.sources {
			s := &p.sources[i]
			n := len(s.fields)
			r.Sources = append(r.Sources, SourceSeries{Meta: s.meta, Fields: s.fields, from: s.src, rows: rows, src: i, words: words, buf: bufs[:n:n]})
			bufs = bufs[n:]
		}
		r.Events = append(r.Events, p.events...)
		r.DroppedEvents += p.dropped
	}
	sort.Slice(r.Sources, func(i, j int) bool {
		a, b := &r.Sources[i], &r.Sources[j]
		if a.Meta.Kind != b.Meta.Kind {
			return a.Meta.Kind < b.Meta.Kind
		}
		if a.Meta.ID != b.Meta.ID {
			return a.Meta.ID < b.Meta.ID
		}
		return firstField(a.Fields) < firstField(b.Fields)
	})
	r.Sources = sumSplitSources(r.Sources)
	sort.Slice(r.Events, func(i, j int) bool {
		a, b := &r.Events[i], &r.Events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Packet != b.Packet {
			return a.Packet < b.Packet
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		return a.Aux < b.Aux
	})
	return r
}

// slotAt translates retained-epoch index i (0 = oldest) to a ring slot.
func (p *Probe) slotAt(i int) int {
	slot := p.head - len(p.ring) + i
	if slot < 0 {
		slot += len(p.ring)
	}
	return slot
}

// sumSplitSources folds the per-shard parts of a split source (see
// AddSource) into one series. The parts carry the same meta and fields,
// so the canonical sort has left them adjacent; the sums are packed into
// rows of their own, never into a probe's ring.
func sumSplitSources(sorted []SourceSeries) []SourceSeries {
	out := sorted[:0]
	for _, ss := range sorted {
		if n := len(out); n > 0 && out[n-1].Meta == ss.Meta && slices.Equal(out[n-1].Fields, ss.Fields) {
			whole := &out[n-1]
			k, epochs := len(ss.Fields), len(ss.rows)
			sums := make([]int64, epochs*k)
			for e := 0; e < epochs; e++ {
				sum := sums[e*k : (e+1)*k]
				copy(sum, whole.At(e))
				for j, v := range ss.At(e) {
					sum[j] += v
				}
			}
			*whole = packedSeries(whole.Meta, whole.Fields, whole.from, epochs, sums)
			continue
		}
		out = append(out, ss)
	}
	return out
}

func firstField(fs []Field) string {
	if len(fs) == 0 {
		return ""
	}
	return fs[0].Name
}
