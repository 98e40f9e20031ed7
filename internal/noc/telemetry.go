package noc

import (
	"strconv"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/router"
	"gathernoc/internal/telemetry"
)

// wireTelemetry builds the collector, attaches the per-shard probes to
// every component (tracer), registers the metrics sources with the shard
// that owns each counter (single-writer rule, DESIGN.md §11), and appends
// the epoch snapshot as the last committer of each shard — after the link
// halves — so a snapshot observes every counter its shard wrote that
// cycle. Runs after engine registration, before the first cycle.
//
// Every component is its own metrics source, through one of the source
// types below, and names itself only when an export asks: registering a
// fabric's thousands of sources allocates neither a closure nor a string
// per source, and the probes' source lists are sized before they fill.
func (nw *Network) wireTelemetry() {
	shards := max(nw.cfg.EffectiveShards(), 1)
	tc := telemetry.New(*nw.cfg.Telemetry, shards)
	nw.tele = tc
	tracing := tc.Tracing()

	// Each shard's sources: its routers and NICs, its sinks, one half of
	// every link with an end in it, and its part of the flit pool.
	counts := make([]int, shards)
	for _, r := range nw.routers {
		counts[nw.shardOfNode(r.ID())] += 2
	}
	for _, s := range nw.sinks {
		counts[nw.shardOfRow(s.row)]++
	}
	for _, rec := range nw.linkRecs {
		counts[rec.downShard]++
		counts[rec.upShard]++
	}
	for sh, n := range counts {
		tc.ReserveSources(sh, n+1)
	}

	routerFields := []telemetry.Field{
		{Name: "buffer_writes"}, {Name: "rc_computations"},
		{Name: "gather_uploads"}, {Name: "reduce_merges"},
		{Name: "occupancy", Gauge: true}, {Name: "max_vc_occupancy", Gauge: true},
	}
	for _, r := range nw.routers {
		sh := nw.shardOfNode(r.ID())
		if tracing {
			r.SetTelemetry(tc.ShardProbe(sh))
		}
		co := nw.topo.Coord(r.ID())
		tc.AddSource(sh, telemetry.SourceMeta{Kind: "router", ID: int(r.ID()), Row: co.Row, Col: co.Col},
			routerFields, (*routerSource)(r))
	}

	// Each link contributes two single-field sources, one per endpoint
	// shard: the forward flit count lives with the downstream committer,
	// the credit count with the upstream one, so both reads stay on the
	// goroutine that writes them.
	// With fault injection active every component's field list grows the
	// fault/recovery counters; a fault-free network keeps the original
	// schema byte for byte.
	faulty := nw.injector != nil
	flitFields := []telemetry.Field{{Name: "flits"}}
	if faulty {
		flitFields = append(flitFields, telemetry.Field{Name: "fault_drops"}, telemetry.Field{Name: "fault_corrupts"})
	}
	creditFields := []telemetry.Field{{Name: "credits"}}
	for i, rec := range nw.linkRecs {
		if tracing {
			rec.l.SetTelemetry(tc.ShardProbe(int(rec.downShard)), int(rec.downID))
		}
		meta := telemetry.SourceMeta{Kind: "link", ID: i, Row: -1, Col: -1}
		tc.AddSource(int(rec.downShard), meta, flitFields, (*linkFlits)(rec.l))
		tc.AddSource(int(rec.upShard), meta, creditFields, (*linkCredits)(rec.l))
	}

	nicFields := []telemetry.Field{
		{Name: "packets_injected"}, {Name: "flits_injected"},
		{Name: "packets_ejected"}, {Name: "flits_ejected"},
		{Name: "queue_depth", Gauge: true},
	}
	if faulty {
		nicFields = append(nicFields,
			telemetry.Field{Name: "retransmits"}, telemetry.Field{Name: "abandoned"},
			telemetry.Field{Name: "dup_suppressed"}, telemetry.Field{Name: "crc_discards"},
			telemetry.Field{Name: "unconfirmed", Gauge: true})
	}
	for _, n := range nw.nics {
		sh := nw.shardOfNode(n.ID())
		if tracing {
			n.Ejector().SetTelemetry(tc.ShardProbe(sh), int(n.ID()))
			n.SetTelemetry(tc.ShardProbe(sh))
		}
		co := nw.topo.Coord(n.ID())
		tc.AddSource(sh, telemetry.SourceMeta{Kind: "nic", ID: int(n.ID()), Row: co.Row, Col: co.Col},
			nicFields, (*nicSource)(n))
	}

	sinkFields := []telemetry.Field{
		{Name: "packets_ejected"}, {Name: "flits_ejected"},
		{Name: "buffered", Gauge: true},
	}
	if faulty {
		sinkFields = append(sinkFields,
			telemetry.Field{Name: "dup_suppressed"}, telemetry.Field{Name: "crc_discards"})
	}
	for _, s := range nw.sinks {
		sh := nw.shardOfRow(s.row)
		if tracing {
			s.ej.SetTelemetry(tc.ShardProbe(sh), int(s.id))
		}
		tc.AddSource(sh, telemetry.SourceMeta{Kind: "sink", ID: s.row, Row: s.row, Col: nw.cfg.Cols},
			sinkFields, (*sinkSource)(s))
	}

	// The flit pool is one fabric-wide gauge split across the shards: a
	// shard's view is acquired from in its tick phase (NIC packetize,
	// router forks, ejector reassembly) and released into in its tick and
	// commit phases (fault injection drops flits in link.CommitFlits), so
	// each shard reports the balance of its own view — read by its own
	// epoch committer, after its own commits — and Harvest sums the parts.
	// A single view's balance can be negative (flits migrate between
	// views); the sum is the sequential engine's Live count.
	poolFields := []telemetry.Field{{Name: "live", Gauge: true}}
	for s := 0; s < shards; s++ {
		tc.AddSource(s, telemetry.SourceMeta{Kind: "pool", ID: 0, Row: -1, Col: -1},
			poolFields, (*poolSource)(nw.poolFor(s)))
	}

	if nw.cfg.Telemetry.Epoch > 0 {
		if !nw.engine.Sharded() {
			nw.engine.Reserve(0, 1)
		}
		for s := 0; s < shards; s++ {
			if nw.engine.Sharded() {
				nw.engine.ReserveShard(s, 0, 1)
			}
			ec := tc.EpochCommitter(s)
			ec.SetWake(nw.addCommitter(s, ec))
		}
	}
	tc.Start()
}

// Telemetry returns the telemetry collector, or nil when
// Config.Telemetry left the observability layer off. Workload schedulers
// use it to reach the serial probe for phase-boundary events.
func (nw *Network) Telemetry() *telemetry.Collector { return nw.tele }

// HarvestTelemetry flushes and merges the telemetry buffers into a report
// (nil without telemetry). Call after the run, from the goroutine that
// drove the engine.
func (nw *Network) HarvestTelemetry() *telemetry.Report {
	if nw.tele == nil {
		return nil
	}
	return nw.tele.Harvest(nw.engine.Cycle())
}

// The metrics sources, each a component seen as a telemetry.Source: Read
// takes its counters, AppendName formats its name at export.
type (
	routerSource router.Router
	nicSource    nic.NIC
	sinkSource   EdgeSink
	// A link's two halves: the flits, with the fault counters on a faulted
	// fabric (written by the shard that commits the link's flits), and the
	// credits.
	linkFlits   link.Link
	linkCredits link.Link
	// poolSource is one shard's view of the flit pool.
	poolSource flit.Pool
)

var _ = [...]telemetry.Source{
	(*routerSource)(nil), (*nicSource)(nil), (*sinkSource)(nil),
	(*linkFlits)(nil), (*linkCredits)(nil), (*poolSource)(nil),
}

func (s *routerSource) Read(dst []int64) {
	r := (*router.Router)(s)
	dst[0] = int64(r.Counters.BufferWrites.Value())
	dst[1] = int64(r.Counters.RCComputations.Value())
	dst[2] = int64(r.Counters.GatherUploads.Value())
	dst[3] = int64(r.Counters.ReduceMerges.Value())
	dst[4] = int64(r.BufferedFlits())
	dst[5] = int64(r.MaxVCOccupancy())
}

func (s *routerSource) AppendName(dst []byte) []byte {
	return strconv.AppendInt(append(dst, 'r'), int64((*router.Router)(s).ID()), 10)
}

func (s *nicSource) Read(dst []int64) {
	n := (*nic.NIC)(s)
	dst[0] = int64(n.PacketsInjected.Value())
	dst[1] = int64(n.FlitsInjected.Value())
	dst[2] = int64(n.Ejector().PacketsEjected.Value())
	dst[3] = int64(n.Ejector().FlitsEjected.Value())
	dst[4] = int64(n.QueueDepth())
	if len(dst) > 5 {
		dst[5] = int64(n.Retransmits.Value())
		dst[6] = int64(n.AbandonedPayloads.Value())
		dst[7] = int64(n.Ejector().DuplicatesSuppressed.Value())
		dst[8] = int64(n.Ejector().PacketsDiscarded.Value())
		dst[9] = int64(n.ReliablePending())
	}
}

func (s *nicSource) AppendName(dst []byte) []byte {
	return strconv.AppendInt(append(dst, "nic"...), int64((*nic.NIC)(s).ID()), 10)
}

func (s *sinkSource) Read(dst []int64) {
	ej := s.ej
	dst[0] = int64(ej.PacketsEjected.Value())
	dst[1] = int64(ej.FlitsEjected.Value())
	dst[2] = int64(ej.Buffered())
	if len(dst) > 3 {
		dst[3] = int64(ej.DuplicatesSuppressed.Value())
		dst[4] = int64(ej.PacketsDiscarded.Value())
	}
}

func (s *sinkSource) AppendName(dst []byte) []byte {
	return strconv.AppendInt(append(dst, "sink"...), int64(s.row), 10)
}

func (s *linkFlits) Read(dst []int64) {
	l := (*link.Link)(s)
	dst[0] = int64(l.FlitsCarried.Value())
	if len(dst) > 1 {
		if ls := l.Faults(); ls != nil {
			dst[1], dst[2] = int64(ls.Drops), int64(ls.Corrupts)
		} else {
			dst[1], dst[2] = 0, 0
		}
	}
}

func (s *linkFlits) AppendName(dst []byte) []byte { return (*link.Link)(s).AppendName(dst) }

func (s *linkCredits) Read(dst []int64) { dst[0] = int64((*link.Link)(s).CreditsCarried.Value()) }

func (s *linkCredits) AppendName(dst []byte) []byte { return (*link.Link)(s).AppendName(dst) }

func (s *poolSource) Read(dst []int64) { dst[0] = (*flit.Pool)(s).Balance() }

func (s *poolSource) AppendName(dst []byte) []byte { return append(dst, "flitpool"...) }
