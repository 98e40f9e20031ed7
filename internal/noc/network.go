// Package noc assembles routers, links, network interfaces and
// global-buffer edge sinks into a runnable network on any
// topology.Topology/Routing pair (2-D mesh or torus; dimension-order,
// west-first or odd-even routing), providing node addressing (including
// the virtual sink nodes past the mesh's east edge), line-collection
// planning and the sender side of Algorithm 1 (LineCollect, Submit), drain
// detection and aggregate activity counts for the power model.
package noc

import (
	"fmt"

	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/router"
	"gathernoc/internal/sim"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// EdgeSink is a global-buffer port attached past the east edge of one mesh
// row (Fig. 1: "GLOBAL BUFFER" alongside the rightmost column). It behaves
// as a pure consumer with its own buffered channel and drain rate.
type EdgeSink struct {
	id  topology.NodeID
	row int
	ej  *nic.Ejector
	// wake is the sink's own engine handle (the ejector holds it too); now
	// the cycle of its latest tick.
	wake *sim.Handle
	now  int64
}

// Ejector exposes the sink's receive machinery (stats, callbacks).
func (s *EdgeSink) Ejector() *nic.Ejector { return s.ej }

// OnReceive registers the completed-packet callback.
func (s *EdgeSink) OnReceive(fn func(*nic.ReceivedPacket)) { s.ej.OnReceive(fn) }

// Tick drains the sink's buffers.
func (s *EdgeSink) Tick(cycle int64) {
	s.now = cycle
	s.ej.Tick(cycle)
}

// Idle implements sim.Idler: with nothing buffered the sink's tick is a pure
// no-op, and so it is, with flits waiting, until the per-packet write
// transaction that stalls it ends, which Idle arms the timer for; flit
// deliveries wake it through the ejector's handle.
func (s *EdgeSink) Idle() bool { return s.wake.IdleUntil(s.now, s.ej.NextDrain(s.now)) }

// Network is a fully wired NoC on the configured topology. Create with
// New, drive through Engine() or the Run helpers.
type Network struct {
	cfg     Config
	topo    topology.Topology
	routing topology.Routing
	format  *flit.Format
	engine  *sim.Engine
	pool    *flit.Pool

	routers []*router.Router
	nics    []*nic.NIC
	sinks   []*EdgeSink
	links   []*link.Link

	// pidSeq[id] counts the packet ids node id's NIC has drawn
	// (nextPacketID); kept here so snapshots can capture it.
	pidSeq []uint64

	// portBranch[p] is the shared single-branch route through port p.
	// Deterministic unicast/gather routes are one of these five slices,
	// so route computation allocates nothing; completeRC copies the
	// branch values out, never mutating the slice.
	portBranch [topology.NumPorts][]topology.MulticastBranch

	// Sharded-mode state (Config.Shards > 0): rowShard maps a fabric row
	// to the shard that owns it, pools holds the per-shard flit-pool views
	// hanging off the root pool, and linkRecs remembers each link's
	// endpoint shards so the two halves of its commit can be registered
	// with the shards that own the mutated state (DESIGN.md §9).
	rowShard []int
	pools    []*flit.Pool
	linkRecs []linkRec

	// tele is the telemetry collector, nil unless Config.Telemetry enables
	// the observability layer (DESIGN.md §11).
	tele *telemetry.Collector

	// Fault-injection state (DESIGN.md §12), nil/zero unless Config.Faults
	// is active: injector compiles the schedule, fabricLinks counts the
	// inter-router prefix of linkRecs (the links transient rates apply to),
	// and portFault indexes each fabric link's fault state by its upstream
	// node and output port so route computation can mask dead ports.
	injector    *fault.Injector
	fabricLinks int
	portFault   [][]*fault.LinkState

	// Reuse state (reuse.go). built marks the end of the fabric's own
	// engine registrations (whatever callers register later is dropped when
	// the network is reset) and nicCfg is what every NIC was built with.
	// Acquire sets pristine, the state a reset restores, and leased, which
	// says that Release may park the network; it is false while parked.
	built    sim.Mark
	nicCfg   nic.Config
	leased   bool
	pristine *pristine

	// enc and dec encode and decode the fabric's state (Snapshot,
	// AppendState, Restore, reset), kept so the encoder's name tables stay
	// grown.
	enc flit.Encoder
	dec flit.Decoder
}

// linkRec records which shard owns each end of a link: downShard mutates
// on flit delivery (the downstream input buffer), upShard on credit return
// (the upstream output credit counters). downID is the downstream
// endpoint's node (or sink) id, reported on link trace events; upID the
// upstream one. outPort is the upstream router's output port, meaningful
// only for the inter-router records (the first fabricLinks entries).
// intoRouter marks the links whose downstream end is a router (inter-router
// and injection links), not an ejector.
type linkRec struct {
	l                  *link.Link
	downShard, upShard int
	downID, upID       topology.NodeID
	outPort            topology.Port
	intoRouter         bool
}

// New builds and wires a network according to cfg.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.New(cfg.Topology, cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	routing, err := topology.NewRouting(cfg.Routing, topo)
	if err != nil {
		return nil, err
	}
	if routing.Adaptive() && routing.VCClasses() > 1 {
		// The adaptive path hands the router alternative ports without
		// per-alternative dateline classes (the port is picked at VA
		// time), so a multi-class adaptive routing would allocate outside
		// its class and could deadlock. No built-in routing hits this;
		// reject custom ones until Route carries per-alternative classes.
		return nil, fmt.Errorf("noc: adaptive routing %q with %d VC classes is unsupported (see DESIGN.md §7)",
			routing.Name(), routing.VCClasses())
	}
	format, err := cfg.Format()
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:     cfg,
		topo:    topo,
		routing: routing,
		format:  format,
		engine:  sim.NewEngine(),
		pool:    flit.NewPool(),
	}
	nw.pool.SetDebug(cfg.DebugFlitPool)
	if shards := cfg.EffectiveShards(); shards > 0 {
		// Sharded engine: contiguous row blocks, shard s owning rows
		// [s*Rows/S, (s+1)*Rows/S). Rows are the natural cut for this
		// fabric — a node's router, NIC and row sink land in one shard, so
		// only the vertical inter-router links cross shard boundaries.
		nw.engine = sim.NewShardedEngine(shards)
		nw.rowShard = make([]int, cfg.Rows)
		for s := 0; s < shards; s++ {
			for r := s * cfg.Rows / shards; r < (s+1)*cfg.Rows/shards; r++ {
				nw.rowShard[r] = s
			}
		}
		nw.pools = make([]*flit.Pool, shards)
		for s := range nw.pools {
			nw.pools[s] = nw.pool.NewView()
		}
	}
	for p := 0; p < topology.NumPorts; p++ {
		nw.portBranch[p] = []topology.MulticastBranch{{Out: topology.Port(p)}}
	}

	// Memory (DESIGN.md §9): every shard's routers, links and NICs come out
	// of that shard's own slabs, sized here, so that nothing the fabric
	// holds allocates after New returns.
	shards := max(cfg.EffectiveShards(), 1)
	nodes, links := nw.shardCounts(shards)

	// Routers. The routing algorithm dictates the dateline VC partition
	// (2 classes for torus dimension-order routing, 1 otherwise).
	rcfg := cfg.Router
	if n := routing.VCClasses(); n > 1 {
		rcfg.VCClasses = n
	}
	routerSlabs := make([]*router.Slab, shards)
	routeFns := make([]router.RoutingFunc, shards)
	for sh := range routerSlabs {
		if routerSlabs[sh], err = router.NewSlab(rcfg, nodes[sh]); err != nil {
			return nil, err
		}
		// Every shard's routers share one adaptive-route scratch buffer:
		// route computation runs concurrently across shards but one router
		// at a time within one, and the buffer's contents never outlive
		// one call.
		scratch := new([4]topology.Port)
		routeFns[sh] = func(cur topology.NodeID, f *flit.Flit) router.Route {
			return nw.routeFlit(scratch, cur, f)
		}
	}
	nw.routers = make([]*router.Router, topo.NumNodes())
	for id := range nw.routers {
		sh := nw.shardOfNode(topology.NodeID(id))
		r, err := routerSlabs[sh].New(topology.NodeID(id), routeFns[sh])
		if err != nil {
			return nil, err
		}
		nw.routers[id] = r
	}

	// Links, each from the slab of the shard that owns its downstream end.
	linkSlabs := make([]*link.Slab, shards)
	total := 0
	for sh := range linkSlabs {
		linkSlabs[sh] = link.NewSlab(links[sh], cfg.LinkLatency)
		total += links[sh]
	}
	nw.links = make([]*link.Link, 0, total)
	nw.linkRecs = make([]linkRec, 0, total)

	// Inter-router links, both directions of every fabric edge.
	nw.eachEdge(func(src, dst topology.NodeID, p topology.Port) {
		nw.wireRouterPair(linkSlabs, nw.routers[src], nw.routers[dst], p)
		nw.wireRouterPair(linkSlabs, nw.routers[dst], nw.routers[src], p.Opposite())
	})
	// Everything wired so far is an inter-router link; fault injection's
	// transient rates apply to this prefix of linkRecs only.
	nw.fabricLinks = len(nw.linkRecs)

	// NICs with injection/ejection channels.
	nicCfg := nic.Config{
		VCs:               cfg.Router.VCs,
		RouterBufferDepth: cfg.Router.BufferDepth,
		EjectDepth:        cfg.Router.BufferDepth,
		EjectRate:         cfg.EjectRate,
		Delta:             cfg.Delta,
		UnicastFlits:      cfg.UnicastFlits,
		GatherCapacity:    cfg.EffectiveGatherCapacity(),
		EnableINA:         cfg.EnableINA,
		ReduceCapacity:    cfg.EffectiveReduceCapacity(),
		ReduceDelta:       cfg.EffectiveReduceDelta(),
		GatherVC:          cfg.Router.GatherVC,
		Format:            format,
	}
	nw.nicCfg = nicCfg
	nicSlabs := make([]*nic.Slab, shards)
	for sh := range nicSlabs {
		if nicSlabs[sh], err = nic.NewSlab(nicCfg, nodes[sh]); err != nil {
			return nil, err
		}
	}
	nw.nics = make([]*nic.NIC, topo.NumNodes())
	nw.pidSeq = make([]uint64, topo.NumNodes())
	nextID := nw.nextPacketID
	for id := 0; id < topo.NumNodes(); id++ {
		sh := nw.shardOfNode(topology.NodeID(id))
		n, err := nicSlabs[sh].New(topology.NodeID(id), nw.routers[id], nextID)
		if err != nil {
			return nil, err
		}
		nw.nics[id] = n
		rtr := nw.routers[id]

		inj := linkSlabs[sh].New(link.Numbered("inj", id), cfg.LinkLatency, rtr.InputSink(topology.LocalPort), n)
		n.ConnectInjection(inj)
		rtr.ConnectInput(topology.LocalPort, inj)
		nw.addLink(inj, sh, sh, topology.NodeID(id), topology.NodeID(id))
		nw.linkRecs[len(nw.linkRecs)-1].intoRouter = true

		ej := linkSlabs[sh].New(link.Numbered("ej", id), cfg.LinkLatency, n.Ejector(), rtr.CreditSink(topology.LocalPort))
		rtr.ConnectOutput(topology.LocalPort, ej, cfg.Router.BufferDepth)
		n.Ejector().ConnectReverse(ej)
		nw.addLink(ej, sh, sh, topology.NodeID(id), topology.NodeID(id))
	}

	// Global-buffer sinks past the east edge (mesh only: Validate rejects
	// EastSinks on a torus, whose east ports wrap around).
	if cfg.EastSinks {
		nw.sinks = make([]*EdgeSink, cfg.Rows)
		for row := 0; row < cfg.Rows; row++ {
			edge := nw.routers[topo.ID(topology.Coord{Row: row, Col: cfg.Cols - 1})]
			s := &EdgeSink{
				id:  nw.RowSinkID(row),
				row: row,
				ej:  nic.NewEjector(link.Numbered("sink", row), cfg.Router.VCs, cfg.Router.BufferDepth, cfg.SinkDrainRate),
			}
			s.ej.SetOwner(s.id)
			s.ej.SetPacketOverhead(cfg.SinkPacketOverhead)
			sh := nw.shardOfRow(row)
			l := linkSlabs[sh].New(link.Numbered("sinklink", row), cfg.LinkLatency, s.ej, edge.CreditSink(topology.EastPort))
			edge.ConnectOutput(topology.EastPort, l, cfg.Router.BufferDepth)
			s.ej.ConnectReverse(l)
			nw.sinks[row] = s
			nw.addLink(l, sh, sh, s.id, edge.ID())
		}
	}

	nw.register()
	if cfg.Faults.Enabled() {
		if err := nw.wireFaults(); err != nil {
			return nil, err
		}
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Enabled() {
		nw.wireTelemetry()
	}
	nw.built = nw.engine.Mark()
	return nw, nil
}

// wireTelemetry builds the collector, attaches the per-shard probes to
// every component (tracer), registers the metrics sources with the shard
// that owns each counter (single-writer rule, DESIGN.md §11), and appends
// the epoch snapshot as the last committer of each shard — after the link
// halves — so a snapshot observes every counter its shard wrote that
// cycle. Runs after engine registration, before the first cycle.
func (nw *Network) wireTelemetry() {
	shards := nw.cfg.EffectiveShards()
	if shards < 1 {
		shards = 1
	}
	tc := telemetry.New(*nw.cfg.Telemetry, shards)
	nw.tele = tc
	tracing := tc.Tracing()

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
		tc.AddSource(sh, telemetry.SourceMeta{
			Kind: "router", ID: int(r.ID()), Name: fmt.Sprintf("r%d", r.ID()), Row: co.Row, Col: co.Col,
		}, routerFields, func(dst []int64) {
			dst[0] = int64(r.Counters.BufferWrites.Value())
			dst[1] = int64(r.Counters.RCComputations.Value())
			dst[2] = int64(r.Counters.GatherUploads.Value())
			dst[3] = int64(r.Counters.ReduceMerges.Value())
			dst[4] = int64(r.BufferedFlits())
			dst[5] = int64(r.MaxVCOccupancy())
		})
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
			rec.l.SetTelemetry(tc.ShardProbe(rec.downShard), int(rec.downID))
		}
		meta := telemetry.SourceMeta{Kind: "link", ID: i, Name: rec.l.Name(), Row: -1, Col: -1}
		l := rec.l
		tc.AddSource(rec.downShard, meta, flitFields, func(dst []int64) {
			dst[0] = int64(l.FlitsCarried.Value())
			if len(dst) > 1 {
				// The fault counters are written by the same shard that
				// commits the link's flits, so the snapshot read is safe.
				if ls := l.Faults(); ls != nil {
					dst[1], dst[2] = int64(ls.Drops), int64(ls.Corrupts)
				} else {
					dst[1], dst[2] = 0, 0
				}
			}
		})
		tc.AddSource(rec.upShard, meta, creditFields, func(dst []int64) {
			dst[0] = int64(l.CreditsCarried.Value())
		})
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
		tc.AddSource(sh, telemetry.SourceMeta{
			Kind: "nic", ID: int(n.ID()), Name: fmt.Sprintf("nic%d", n.ID()), Row: co.Row, Col: co.Col,
		}, nicFields, func(dst []int64) {
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
		})
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
		tc.AddSource(sh, telemetry.SourceMeta{
			Kind: "sink", ID: s.row, Name: fmt.Sprintf("sink%d", s.row), Row: s.row, Col: nw.cfg.Cols,
		}, sinkFields, func(dst []int64) {
			dst[0] = int64(s.ej.PacketsEjected.Value())
			dst[1] = int64(s.ej.FlitsEjected.Value())
			dst[2] = int64(s.ej.Buffered())
			if len(dst) > 3 {
				dst[3] = int64(s.ej.DuplicatesSuppressed.Value())
				dst[4] = int64(s.ej.PacketsDiscarded.Value())
			}
		})
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
		view := nw.poolFor(s)
		tc.AddSource(s, telemetry.SourceMeta{Kind: "pool", ID: 0, Name: "flitpool", Row: -1, Col: -1},
			poolFields, func(dst []int64) {
				dst[0] = view.Balance()
			})
	}

	for s := 0; s < shards; s++ {
		ec := tc.EpochCommitter(s)
		if ec == nil {
			break
		}
		ec.SetWake(nw.addCommitter(s, ec))
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

// register hands every component to the engine: routers, sinks, then NICs
// as tickers, all links as committers; controllers added by callers tick
// after NICs. Every component gets its wake handle (and NICs the engine
// clock) so the engine can sleep idle components and re-evaluate them on
// flit/credit handoff or packet submission.
//
// On a sharded engine (DESIGN.md §9) each component goes to the shard that
// owns its row, which keeps the sequential engine's relative order within
// every shard and every Wake inside the shard that makes it. A link whose
// two ends share a shard is registered whole, as on the sequential engine.
// A link that crosses a shard boundary is committed in two halves, one per
// endpoint shard. Send and ReturnCredit run in the tick phase of the shard
// at the other end from the half each wakes, so the halves get remote
// handles, whose wakes the owning shard picks up when its commit phase
// starts. Ejectors switch to
// staged delivery, and the staged-dispatch hook becomes the first serial
// ticker so receive callbacks fire — in the sequential callback order —
// before any workload driver runs; it sleeps until an ejector stages a
// packet.
func (nw *Network) register() {
	nw.reserve()
	for _, r := range nw.routers {
		sh := nw.shardOfNode(r.ID())
		r.SetWake(nw.addTicker(sh, r))
		r.SetFlitPool(nw.poolFor(sh))
	}
	for _, s := range nw.sinks {
		sh := nw.shardOfRow(s.row)
		s.wake = nw.addTicker(sh, s)
		s.ej.SetWake(s.wake)
		s.ej.SetFlitPool(nw.poolFor(sh))
	}
	for _, n := range nw.nics {
		sh := nw.shardOfNode(n.ID())
		h, pool := nw.addTicker(sh, n), nw.poolFor(sh)
		n.SetWake(h)
		n.Ejector().SetWake(h)
		n.SetClock(nw.engine)
		n.SetFlitPool(pool)
		n.Ejector().SetFlitPool(pool)
	}
	for _, rec := range nw.linkRecs {
		if rec.downShard == rec.upShard {
			rec.l.SetWake(nw.addCommitter(rec.downShard, rec.l))
			continue
		}
		rec.l.SetHalfWakes(
			nw.engine.AddShardCommitter(rec.downShard, link.FlitHalf{L: rec.l}).Remote(rec.upShard),
			nw.engine.AddShardCommitter(rec.upShard, link.CreditHalf{L: rec.l}).Remote(rec.downShard))
	}
	if nw.engine.Sharded() {
		dispatcher := nw.wakeFromShards(nw.engine.AddTicker(stagedDispatcher{nw}))
		for _, s := range nw.sinks {
			s.ej.SetStaged(dispatcher[nw.shardOfRow(s.row)])
		}
		for _, n := range nw.nics {
			n.Ejector().SetStaged(dispatcher[nw.shardOfNode(n.ID())])
		}
	}
}

// reserve tells the engine how many components register will hand each
// of its lanes, so that their lists are allocated once.
func (nw *Network) reserve() {
	if !nw.engine.Sharded() {
		nw.engine.Reserve(len(nw.routers)+len(nw.sinks)+len(nw.nics), len(nw.linkRecs))
		return
	}
	tickers := make([]int, nw.cfg.EffectiveShards())
	committers := make([]int, len(tickers))
	for _, r := range nw.routers {
		tickers[nw.shardOfNode(r.ID())] += 2 // the router and its NIC
	}
	for _, s := range nw.sinks {
		tickers[nw.shardOfRow(s.row)]++
	}
	for _, rec := range nw.linkRecs {
		committers[rec.downShard]++
		if rec.upShard != rec.downShard {
			committers[rec.upShard]++
		}
	}
	for sh := range tickers {
		nw.engine.ReserveShard(sh, tickers[sh], committers[sh])
	}
}

// wakeFromShards returns, indexed by shard, the handle the components of
// that shard wake a serial-lane component with, given the component's own
// handle h: on a sharded engine they tick in their shard's parallel phase
// and need a remote handle each; the sequential engine's one lane uses h.
func (nw *Network) wakeFromShards(h *sim.Handle) []*sim.Handle {
	hs := []*sim.Handle{h}
	if nw.engine.Sharded() {
		hs = make([]*sim.Handle, nw.cfg.EffectiveShards())
		for sh := range hs {
			hs[sh] = h.Remote(sh)
		}
	}
	return hs
}

// addTicker registers t with shard sh of a sharded engine, or with the
// sequential engine.
func (nw *Network) addTicker(sh int, t sim.Ticker) *sim.Handle {
	if nw.engine.Sharded() {
		return nw.engine.AddShardTicker(sh, t)
	}
	return nw.engine.AddTicker(t)
}

// addCommitter is addTicker for the commit phase.
func (nw *Network) addCommitter(sh int, c sim.Committer) *sim.Handle {
	if nw.engine.Sharded() {
		return nw.engine.AddShardCommitter(sh, c)
	}
	return nw.engine.AddCommitter(c)
}

// stagedDispatcher replays the cycle's staged packet deliveries on the
// serial sub-phase, in the order the sequential engine fires them: sink
// callbacks row by row (sinks register before NICs), then NIC callbacks
// in node order. It sleeps whenever it has run: the ejector that stages a
// packet wakes it.
type stagedDispatcher struct{ nw *Network }

func (d stagedDispatcher) Idle() bool { return true }

func (d stagedDispatcher) Tick(cycle int64) {
	for _, s := range d.nw.sinks {
		s.ej.DispatchStaged()
	}
	for _, n := range d.nw.nics {
		n.Ejector().DispatchStaged()
	}
}

// wireRouterPair wires the link that leaves src by port out into dst, out of
// the link slab of the shard owning dst.
func (nw *Network) wireRouterPair(slabs []*link.Slab, src, dst *router.Router, out topology.Port) {
	in := out.Opposite()
	l := slabs[nw.shardOfNode(dst.ID())].New(
		link.Between(src.ID(), out, dst.ID()),
		nw.cfg.LinkLatency,
		dst.InputSink(in),
		src.CreditSink(out),
	)
	src.ConnectOutput(out, l, nw.cfg.Router.BufferDepth)
	dst.ConnectInput(in, l)
	nw.addLink(l, nw.shardOfNode(dst.ID()), nw.shardOfNode(src.ID()), dst.ID(), src.ID())
	nw.linkRecs[len(nw.linkRecs)-1].outPort = out
	nw.linkRecs[len(nw.linkRecs)-1].intoRouter = true
}

// nextPacketID draws the next packet id of node id's NIC. Packet ids are
// striped per NIC — node id's NIC issues id+1, id+1+N, id+1+2N, ... — so
// every id is network-unique (ejectors key reassembly on them) without a
// global counter. A shared counter would be read-modify-written
// concurrently in sharded mode (self-initiated gathers draw ids inside
// NIC.Tick), and per-NIC striping keeps the sequence identical for any
// shard count, sequential mode included. Each pidSeq slot is written only
// by its own NIC's shard, preserving the single-writer rule.
func (nw *Network) nextPacketID(id topology.NodeID) uint64 {
	seq := &nw.pidSeq[id]
	pid := uint64(id) + 1 + *seq*uint64(len(nw.pidSeq))
	*seq++
	return pid
}

// eachEdge calls fn once for every undirected fabric edge, with the end
// src that reaches the other end dst by its east or south port p: scanning
// every node's east and south ports enumerates each edge exactly once on
// the mesh and on the torus (a wraparound edge is seen only from its
// east/south end). A degenerate 1-wide torus ring wraps onto itself; no
// routing function ever uses such a link, so it has none.
func (nw *Network) eachEdge(fn func(src, dst topology.NodeID, p topology.Port)) {
	for id := 0; id < nw.topo.NumNodes(); id++ {
		for _, p := range [...]topology.Port{topology.EastPort, topology.SouthPort} {
			if nb, ok := nw.topo.Neighbor(topology.NodeID(id), p); ok && nb != topology.NodeID(id) {
				fn(topology.NodeID(id), nb, p)
			}
		}
	}
}

// shardCounts returns, per shard, the nodes it owns and the links whose
// downstream end it owns: the sizes of its slabs.
func (nw *Network) shardCounts(shards int) (nodes, links []int) {
	nodes, links = make([]int, shards), make([]int, shards)
	for id := 0; id < nw.topo.NumNodes(); id++ {
		sh := nw.shardOfNode(topology.NodeID(id))
		nodes[sh]++
		links[sh] += 2 // injection and ejection
	}
	nw.eachEdge(func(src, dst topology.NodeID, _ topology.Port) {
		links[nw.shardOfNode(src)]++
		links[nw.shardOfNode(dst)]++
	})
	if nw.cfg.EastSinks {
		for row := 0; row < nw.cfg.Rows; row++ {
			links[nw.shardOfRow(row)]++
		}
	}
	return nodes, links
}

// addLink records a wired link with the shards owning its two endpoints:
// flit delivery mutates the downstream endpoint, credit return the
// upstream one. Sequential networks record shard 0 throughout.
func (nw *Network) addLink(l *link.Link, downShard, upShard int, downID, upID topology.NodeID) {
	nw.links = append(nw.links, l)
	nw.linkRecs = append(nw.linkRecs, linkRec{l: l, downShard: downShard, upShard: upShard, downID: downID, upID: upID})
}

// shardOfNode returns the shard owning node id's row (0 when sequential).
func (nw *Network) shardOfNode(id topology.NodeID) int {
	return nw.shardOfRow(nw.topo.Coord(id).Row)
}

// shardOfRow returns the shard owning a fabric row (0 when sequential).
func (nw *Network) shardOfRow(row int) int {
	if nw.rowShard == nil {
		return 0
	}
	return nw.rowShard[row]
}

// Config returns the network's configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Topology returns the fabric the network is wired on.
func (nw *Network) Topology() topology.Topology { return nw.topo }

// Routing returns the routing algorithm steering the network's packets.
func (nw *Network) Routing() topology.Routing { return nw.routing }

// Mesh returns the underlying topology.
//
// Deprecated: the fabric is not necessarily a mesh anymore; use Topology.
// Retained because the coordinate-grid methods (ID, Coord, Hops, ...) are
// what every caller used, and those live on the interface.
func (nw *Network) Mesh() topology.Topology { return nw.topo }

// Engine returns the cycle engine, for registering controllers.
func (nw *Network) Engine() *sim.Engine { return nw.engine }

// Close stops the engine's shard workers. A no-op on sequential networks
// (and safe to call repeatedly); sharded networks should be closed when
// done so the persistent worker goroutines exit.
func (nw *Network) Close() { nw.engine.Close() }

// FlitPool returns the network's flit pool. Tests use it (with
// Config.DebugFlitPool) to assert that a drained network leaked no flits.
func (nw *Network) FlitPool() *flit.Pool { return nw.pool }

// Router returns the router at node id.
func (nw *Network) Router(id topology.NodeID) *router.Router { return nw.routers[id] }

// NIC returns the network interface at node id.
func (nw *Network) NIC(id topology.NodeID) *nic.NIC { return nw.nics[id] }

// Sink returns the global-buffer sink of the given row, or nil when east
// sinks are disabled.
func (nw *Network) Sink(row int) *EdgeSink {
	if row < 0 || row >= len(nw.sinks) {
		return nil
	}
	return nw.sinks[row]
}

// OnReceive installs fn as the completed-packet callback of every NIC and
// every edge sink, so every packet the fabric delivers reaches fn; nil
// clears them all. It is the one owner of the receive callbacks: the
// workload scheduler and workload.Run install theirs through it, and a
// reset clears them through it.
func (nw *Network) OnReceive(fn func(*nic.ReceivedPacket)) {
	for _, n := range nw.nics {
		n.OnReceive(fn)
	}
	for _, s := range nw.sinks {
		s.OnReceive(fn)
	}
}

// RowSinkID returns the virtual node id addressing the global-buffer sink
// of the given row. Sink ids live just past the PE id space.
func (nw *Network) RowSinkID(row int) topology.NodeID {
	return topology.NodeID(nw.topo.NumNodes() + row)
}

// IsSinkID reports whether id addresses an edge sink.
func (nw *Network) IsSinkID(id topology.NodeID) bool {
	n := nw.topo.NumNodes()
	return int(id) >= n && int(id) < n+len(nw.sinks)
}

// routeFlit is the RoutingFunc behind every router (each closes over its
// own scratch buffer): the configured topology.Routing for unicast, gather
// and accumulate traffic — extended to the virtual sink nodes past the
// mesh's east edge — and XY-tree branching for multicast.
func (nw *Network) routeFlit(scratch *[4]topology.Port, cur topology.NodeID, f *flit.Flit) router.Route {
	if f.PT == flit.Multicast {
		branches, local := topology.MulticastRoute(nw.topo, cur, f.MDst)
		rt := router.Route{Branches: branches}
		if local {
			rt.Branches = append(rt.Branches, topology.MulticastBranch{Out: topology.LocalPort})
		}
		return rt
	}
	dst := f.Dst
	if nw.IsSinkID(dst) {
		row := int(dst) - nw.topo.NumNodes()
		edge := nw.topo.ID(topology.Coord{Row: row, Col: nw.cfg.Cols - 1})
		if cur == edge {
			return router.Route{Branches: nw.portBranch[topology.EastPort]}
		}
		return nw.unicastRoute(scratch, f.Src, cur, edge)
	}
	return nw.unicastRoute(scratch, f.Src, cur, dst)
}

// unicastRoute translates the routing algorithm's port set into a
// router.Route: a shared single-branch route (plus the hop's dateline VC
// class) when deterministic, an adaptive alternative list when several
// ports are productive, and local delivery when the packet has arrived.
func (nw *Network) unicastRoute(scratch *[4]topology.Port, src, cur, dst topology.NodeID) router.Route {
	ports := nw.routing.AppendPorts(scratch[:0], src, cur, dst)
	switch len(ports) {
	case 0:
		return router.Route{Branches: nw.portBranch[topology.LocalPort]}
	case 1:
		return router.Route{
			Branches: nw.portBranch[ports[0]],
			VCClass:  nw.routing.VCClass(cur, dst, ports[0]),
		}
	default:
		if nw.portFault != nil {
			ports = nw.filterPorts(ports, cur)
		}
		return router.Route{Adaptive: ports}
	}
}

// InFlight reports the total flits buffered in routers, traversing links,
// or waiting in ejection buffers.
func (nw *Network) InFlight() int {
	n := 0
	for _, r := range nw.routers {
		n += r.BufferedFlits()
	}
	for _, l := range nw.links {
		n += l.InFlight()
	}
	for _, s := range nw.sinks {
		n += s.ej.Buffered()
	}
	return n
}

// Quiescent reports whether no packet activity remains anywhere: NIC
// queues, router buffers, links, sinks and gather stations are all empty.
func (nw *Network) Quiescent() bool {
	for _, n := range nw.nics {
		if n.Pending() {
			return false
		}
	}
	for _, r := range nw.routers {
		if r.GatherBacklog() > 0 || r.ReduceBacklog() > 0 {
			return false
		}
	}
	if nw.InFlight() != 0 {
		return false
	}
	for _, s := range nw.sinks {
		if s.ej.PendingPackets() > 0 {
			return false
		}
	}
	return true
}

// RunUntilQuiescent steps the network until it drains or the cycle budget
// is exhausted (returning sim.ErrMaxCyclesExceeded).
func (nw *Network) RunUntilQuiescent(maxCycles int64) (int64, error) {
	return nw.engine.RunUntil(nw.Quiescent, maxCycles)
}

// CheckInvariants validates every router's internal consistency (see
// router.CheckInvariants) and every channel's: credits conserved on each
// link and VC, and every multicast head on a link into a router routable
// (see link.Link.CheckInvariants). Restore ends with it; tests and
// debugging runs call it between cycles.
func (nw *Network) CheckInvariants() error {
	for _, r := range nw.routers {
		if err := r.CheckInvariants(); err != nil {
			return err
		}
	}
	for _, rec := range nw.linkRecs {
		if err := rec.l.CheckInvariants(nw.cfg.Router.BufferDepth, nw.cfg.Router.VCs, rec.intoRouter); err != nil {
			return err
		}
	}
	return nil
}

// Activity aggregates the event counts the power model consumes.
type Activity struct {
	BufferWrites   uint64
	BufferReads    uint64
	RCComputations uint64
	VAAllocations  uint64
	SAGrants       uint64
	Crossings      uint64
	LinkFlits      uint64
	GatherUploads  uint64
	ReduceMerges   uint64
	PacketsSent    uint64
	FlitsSent      uint64
}

// counts lists the fields of a, for the arithmetic below.
func (a *Activity) counts() [11]*uint64 {
	return [...]*uint64{&a.BufferWrites, &a.BufferReads, &a.RCComputations,
		&a.VAAllocations, &a.SAGrants, &a.Crossings, &a.LinkFlits,
		&a.GatherUploads, &a.ReduceMerges, &a.PacketsSent, &a.FlitsSent}
}

// AppendCounts appends a's counts to dst, field by field: the vector form
// in which the round loop adds readings up (round.Repeater.Tally).
func (a Activity) AppendCounts(dst []uint64) []uint64 {
	for _, c := range a.counts() {
		dst = append(dst, *c)
	}
	return dst
}

// AddCounts returns a plus v, count by count, v in AppendCounts's order.
func (a Activity) AddCounts(v []uint64) Activity {
	for i, c := range a.counts() {
		*c += v[i]
	}
	return a
}

// Activity sums the per-component counters across the network.
func (nw *Network) Activity() Activity {
	var a Activity
	for _, r := range nw.routers {
		a.BufferWrites += r.Counters.BufferWrites.Value()
		a.BufferReads += r.Counters.BufferReads.Value()
		a.RCComputations += r.Counters.RCComputations.Value()
		a.VAAllocations += r.Counters.VAAllocations.Value()
		a.SAGrants += r.Counters.SAGrants.Value()
		a.Crossings += r.Counters.Crossings.Value()
		a.GatherUploads += r.Counters.GatherUploads.Value()
		a.ReduceMerges += r.Counters.ReduceMerges.Value()
	}
	for _, l := range nw.links {
		a.LinkFlits += l.FlitsCarried.Value()
	}
	for _, n := range nw.nics {
		a.PacketsSent += n.PacketsInjected.Value()
		a.FlitsSent += n.FlitsInjected.Value()
	}
	return a
}
