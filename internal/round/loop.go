// Package round holds the round state machine every workload controller
// runs (Sec. III-A, Fig. 4): compute until the nodes' operands are ready,
// release each one on its cycle, collect until the controller says the round
// is complete, open the next round. systolic.Controller,
// traffic.AccumulationController and collective.Driver embed a Loop by value
// and supply Hooks; what travels in a round, which NIC call carries it and
// how completion is judged stay with them (DESIGN.md §8). The Loop supplies
// the workload.Driver methods they share, so each runs alone under
// workload.Run or as one phase of a workload.Scheduler.
package round

import (
	"bytes"
	"slices"
	"sync"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/topology"
)

// Hooks is what a controller supplies to a Loop.
type Hooks interface {
	// BeginRound opens round Loop.Round at cycle now: the controller resets
	// its per-round accounts and declares, with Loop.Ready, each node that
	// will produce an operand this round and the cycle it does. Nodes not
	// declared sit the round out (weight-stationary's upper rows, every
	// leaf of a pure broadcast).
	BeginRound(now int64)
	// Inject sends node id's operand; cycle is the first tick at or after
	// the cycle the node was declared ready for.
	Inject(id int, cycle int64)
	// Advance runs in every cycle of an open round in which the loop is
	// ticked, after that cycle's releases: the controller does its remaining
	// work (relays, a broadcast leg) and reports whether the round is
	// complete. Run alone the loop sleeps between the cycles that can
	// change the answer (see Tick), so what Advance does may depend only on
	// the operands released and the deliveries announced with Wake since it
	// last ran, and on the clock reaching a cycle announced with WakeAt.
	Advance(cycle int64) (complete bool)
	// RoundClosed reports the latency, open to complete, of the round that
	// just closed.
	RoundClosed(latency int64)
}

// Repeater is the Hooks extension of a controller whose rounds a loop run
// alone may prove identical and skip (ProveRepeats), or replay from another
// run's recorded trajectory (Join).
type Repeater interface {
	// AppendState appends, at the cycle boundary after cycle base, the
	// state the rest of the run depends on besides the loop's own — the
	// fabric's and the controller's — with every absolute cycle written
	// relative to base (noc.Network.AppendState). It returns nil when that
	// state holds something the encoding cannot express.
	AppendState(buf []byte, base int64) []byte
	// Tally appends to dst, read at the boundary, the fabric's clock ties
	// (noc.Network.ClockTies), then the counters the controller's Result
	// sums. The loop only subtracts and scales tallies; what it accounted
	// without simulating, the controller adds from Grown.
	Tally(dst []uint64) []uint64
}

// never is the ready cycle of a node with nothing left to release this
// round: already released, or not declared.
const never = sim.Never

// Loop is the round state machine. The zero value is unusable; call Init.
type Loop struct {
	h      Hooks
	rounds int

	round int
	start int64
	done  bool

	// readyAt[id] is the cycle node id's operand becomes ready, never once
	// released; pending counts the entries that are not never.
	readyAt []int64
	pending int
	// nextDue is the earliest readyAt still pending (never when there is
	// none): release has nothing to do before that cycle.
	nextDue int64

	// wake is the handle of the loop's own engine registration, nil when a
	// scheduler (or a test) ticks the loop every cycle; named is the
	// earliest cycle the controller asked to be ticked in (WakeAt), never
	// when it asked for none.
	wake  *sim.Handle
	named int64

	tag     flit.Tag
	foreign func(flit.Payload)
	seq     uint64
	bits    int

	// The periodicity proof (ProveRepeats): rep is the controller, limit
	// the last cycle the run may end at, rotation the clock's period, buf
	// the pooled buffers. buf.encs holds the encodings of the latest two
	// opens, encs[cur] the latest, taken at the open at prev when encoded
	// says it is comparable; buf.tallies holds the tallies taken with them.
	// skipped counts the cycles a fast-forward or a replay accounted
	// without simulating them, and grown the tally's growth over them
	// (Grown).
	rep      Repeater
	limit    int64
	rotation int64
	buf      *scratch
	cur      int
	encoded  bool
	prev     int64
	skipped  int64
	grown    []uint64

	// follow is the run's part in a trajectory table (Join), nil when it
	// has none.
	follow *follower
}

// Init prepares the loop to run the given number of rounds over nodes
// nodes under h, its payloads payloadBits wide (Payload). The first round
// opens at Start.
func (l *Loop) Init(h Hooks, nodes, rounds, payloadBits int) {
	l.h = h
	l.rounds = rounds
	l.bits = payloadBits
	l.readyAt = make([]int64, nodes)
	l.named = never
}

// SetWake attaches the handle of the loop's engine registration
// (sim.Engine.RunWith does), which lets the loop sleep between the cycles it
// has work in.
func (l *Loop) SetWake(h *sim.Handle) { l.wake = h }

// Wake has a sleeping loop ticked in this cycle (the loop ticks after the
// fabric) or the next. The controller calls it from its receive callbacks:
// a delivery is what changes Advance's answer.
func (l *Loop) Wake() { l.wake.Wake() }

// WakeAt has a sleeping loop ticked in the given cycle. A controller whose
// Advance waits for the clock (a broadcast root's compute time) names the
// cycle from BeginRound and from every Advance that finds it still ahead:
// the loop keeps the earliest cycle named since it last reached one.
func (l *Loop) WakeAt(cycle int64) { l.named = min(l.named, cycle) }

// SetTag assigns the workload tag Tag and Payload report
// (workload.Taggable; the scheduler calls it before Start). The zero tag
// reproduces the untagged encodings bit for bit.
func (l *Loop) SetTag(t flit.Tag) { l.tag = t }

// Tag returns the workload tag (zero when run alone).
func (l *Loop) Tag() flit.Tag { return l.tag }

// SetForeignPayloadHandler installs the hook Route hands other controllers'
// payloads to (workload.ForeignPayloadRouter).
func (l *Loop) SetForeignPayloadHandler(fn func(flit.Payload)) { l.foreign = fn }

// nextSeq allocates a payload sequence number namespaced by the workload
// tag, so concurrent controllers sharing a NIC's wait lists and stations
// never collide (zero tag: a bare counter from 1).
func (l *Loop) nextSeq() uint64 {
	n := l.NextSeq()
	l.seq++
	return n
}

// NextSeq returns the sequence number the next Payload takes: read in
// BeginRound, where the round's payloads start numbering.
func (l *Loop) NextSeq() uint64 { return uint64(l.tag)<<32 | (l.seq + 1) }

// Payload assembles the payload node src releases toward dst at cycle: a
// fresh sequence number namespaced by the workload tag, the run's payload
// width, and value standing for ops operands of reduction rid (0 for a
// payload that is no reduction operand, such as a layer's result).
func (l *Loop) Payload(src, dst topology.NodeID, rid, value uint64, ops int, cycle int64) flit.Payload {
	return flit.Payload{
		Seq: l.nextSeq(), Src: src, Dst: dst,
		Bits:       l.bits,
		Value:      value,
		ReadyCycle: cycle,
		ReduceID:   rid,
		Ops:        ops,
	}
}

// Route hands each payload of p to own, except those whose ReduceID carries
// another controller's tag, picked up en route by this controller's
// collective packet: with a foreign handler installed they go home through
// it instead.
func (l *Loop) Route(p *nic.ReceivedPacket, own func(flit.Payload)) {
	for _, pl := range p.Payloads {
		if l.foreign != nil && flit.ReduceIDTag(pl.ReduceID) != l.tag {
			l.foreign(pl)
			continue
		}
		own(pl)
	}
}

// Round returns the index of the open round (the round count once Done).
func (l *Loop) Round() int { return l.round }

// Start opens the first round at the given cycle (workload.Driver).
func (l *Loop) Start(cycle int64) { l.begin(cycle) }

func (l *Loop) begin(now int64) {
	l.start = now
	for id := range l.readyAt {
		l.readyAt[id] = never
	}
	l.pending = 0
	l.nextDue = never
	l.h.BeginRound(now)
}

// Ready declares, from within Hooks.BeginRound, that node id's operand is
// ready at cycle at. Declare a node at most once per round.
func (l *Loop) Ready(id int, at int64) {
	l.readyAt[id] = at
	l.pending++
	l.nextDue = min(l.nextDue, at)
}

// Tick advances the open round by one cycle, in the order the controllers'
// bit-identical replay rests on: release the operands that have come due
// (ascending node id), run the controller's per-cycle work, and when it
// reports the round complete close it and open the next at the same cycle.
//
// Ticking the loop in a cycle in which no operand is due, no delivery has
// arrived and which the controller did not name does nothing, so a loop
// registered with an engine sleeps through those (Idle).
func (l *Loop) Tick(cycle int64) {
	if l.done {
		return
	}
	if cycle >= l.nextDue {
		l.release(cycle)
	}
	if cycle >= l.named {
		l.named = never
	}
	if l.h.Advance(cycle) {
		l.h.RoundClosed(cycle - l.start)
		l.round++
		if l.round >= l.rounds {
			l.done = true
			return
		}
		l.begin(cycle)
	}
}

// Idle implements sim.Idler for a loop that holds its wake handle: between
// releases, deliveries and named cycles its tick is a no-op, and Idle arms
// the timer for the next operand or named cycle.
func (l *Loop) Idle() bool {
	if l.wake == nil {
		return false
	}
	if at := min(l.nextDue, l.named); at != never {
		l.wake.WakeAt(at)
	}
	return true
}

func (l *Loop) release(cycle int64) {
	l.nextDue = never
	for id, at := range l.readyAt {
		if at > cycle {
			l.nextDue = min(l.nextDue, at)
			continue
		}
		l.readyAt[id] = never
		l.pending--
		l.h.Inject(id, cycle)
	}
}

// ProveRepeats has a loop run alone try to prove, at each round open from
// round 1 on, that the round repeats the one before it, and once it does,
// close every remaining round without simulating it (Settled). Round 0
// opens on the fabric as built, which no later open matches, so a proof
// needs the opens of rounds 1 and 2: with fewer than three rounds the loop
// proves nothing. ProveRepeats reports false, and changes nothing, for hooks
// that are not a Repeater, or for fewer than three rounds unless the loop
// follows a trajectory table (Join). limit is the cycle the run's budget
// ends at: a fast-forward or a replay past it is not taken, so the run fails
// where it always did. rotation is the period of the fabric's VA rotation
// (noc.Network.ClockPeriod): a stretch in which the clock ties moved
// repeats only a whole number of rotations away.
func (l *Loop) ProveRepeats(limit, rotation int64) bool {
	rep, ok := l.h.(Repeater)
	if !ok || (l.rounds < 3 && l.follow == nil) {
		return false
	}
	l.rep, l.limit, l.rotation = rep, limit, rotation
	l.buf = buffers.Get().(*scratch)
	return true
}

// scratch is the proof's buffers: the latest two opens' encodings and
// tallies, and a trajectory's encodings at a release and tally at a close.
type scratch struct {
	encs    [2][]byte
	tallies [2][]uint64
	rel     [2][]byte
	tally   []uint64
}

// buffers recycles the proof's buffers from run to run: a 16×16 fabric
// encodes to about 7 KB, and a sweep runs hundreds of layers.
var buffers = sync.Pool{New: func() any { return new(scratch) }}

// Settled is the done predicate of a loop proving its rounds repeat: the
// engine calls it at every cycle boundary, cycle being the clock there. At
// the boundary after a round opens it encodes the state — the
// controller's and the fabric's (Repeater.AppendState), then the loop's
// own — into one of two reused buffers and compares it byte for byte with
// the previous open's. Equal encodings, and clock ties that did not move
// between them unless the period is a whole number of rotations, prove
// that every later round repeats that one, the run being deterministic:
// the loop accounts the tally's growth over the period once per round left
// (Grown), closes those rounds, each one period long, and is done. Skipped
// then says how many cycles that accounted. A loop that follows a
// trajectory table records or replays there too (Join). Settled reports
// Drained.
//
// Two fields of the loop stay out of the encoding: the round index, which
// feeds only the payloads' Value and reduction ids (neither encoded, see
// flit.Encoder) and the round count the fast-forward accounts for, and the
// payload sequence counter, which only draws fresh sequence numbers.
func (l *Loop) Settled(cycle int64) bool {
	if l.follow != nil {
		l.trace(cycle)
	}
	if !l.done && l.rounds >= 3 && l.round > 0 && cycle == l.start+1 {
		l.prove(cycle)
	}
	if l.done && l.buf != nil {
		if l.follow != nil {
			l.publish()
		}
		buffers.Put(l.buf)
		l.buf = nil
	}
	return l.done
}

// prove encodes the state at the boundary after the open, cycle being the
// clock there, and fast-forwards when it repeats the previous open's.
func (l *Loop) prove(cycle int64) {
	b, next := l.buf, 1-l.cur
	enc := l.rep.AppendState(b.encs[next][:0], l.start)
	if enc != nil {
		enc = l.appendState(enc, l.start)
		b.encs[next] = enc
	}
	b.tallies[next] = l.rep.Tally(b.tallies[next][:0])
	if enc != nil && l.encoded && bytes.Equal(enc, b.encs[l.cur]) {
		period := l.start - l.prev
		left := l.rounds - l.round
		skip := int64(left) * period
		// A round in which the rotation may have decided an allocation
		// repeats only if its period is a whole number of rotations.
		if b.tallies[next][0] == b.tallies[l.cur][0] || period%l.rotation == 0 {
			if cycle+skip <= l.limit {
				l.grown = extend(nil, nil, b.tallies[l.cur], b.tallies[next], left)
				l.finish(skip, period, left)
				return
			}
			// Another run of the trajectory may fast-forward here: this
			// one cannot stand for it.
			if l.follow != nil {
				l.follow.abandon()
			}
		}
	}
	l.cur, l.encoded, l.prev = next, enc != nil, l.start
}

// finish closes the rounds left, each period cycles long, and accounts
// skip cycles not simulated.
func (l *Loop) finish(skip, period int64, left int) {
	for range left {
		l.h.RoundClosed(period)
	}
	l.round, l.done, l.skipped = l.rounds, true, skip
}

// extend appends to dst, count by count, base + n·(to − from); a nil base
// stands for zeros. It grows dst once.
func extend(dst, base, from, to []uint64, n int) []uint64 {
	dst = slices.Grow(dst, len(to))
	for i := range to {
		v := uint64(n) * (to[i] - from[i])
		if base != nil {
			v += base[i]
		}
		dst = append(dst, v)
	}
	return dst
}

// appendState appends the loop's carried state: the release schedule,
// relative to base.
func (l *Loop) appendState(buf []byte, base int64) []byte {
	var e flit.Encoder
	e.Reset(buf, base)
	e.Int(int64(l.pending))
	e.Cycle(l.nextDue)
	e.Cycle(l.named)
	for _, at := range l.readyAt {
		e.Cycle(at)
	}
	return e.Bytes()
}

// Grown returns the growth of the counters Repeater.Tally reads, less the
// clock ties, over the rounds the fast-forward or a replay accounted
// without simulating them; nil when the loop simulated every round. The
// controller's Result adds it to what it reads.
func (l *Loop) Grown() []uint64 {
	if l.grown == nil {
		return nil
	}
	return l.grown[1:]
}

// Skipped returns the cycles the fast-forward or a replay accounted
// without simulating them (0 when neither did): the run the loop stood in
// for ended that many cycles after the engine's clock.
func (l *Loop) Skipped() int64 { return l.skipped }

// Extrapolate returns a whole workload's cycles from the rounds a run
// sampled: their mean latency times total, rounded; 0 when no round closed.
func Extrapolate(rounds *stats.Sample, total int64) int64 {
	if rounds.N() == 0 {
		return 0
	}
	return int64(rounds.Mean()*float64(total) + 0.5)
}

// Done reports whether every round has closed.
func (l *Loop) Done() bool { return l.done }

// Injected reports whether every operand of the final round has been
// released (workload.Driver: overlap successors may start while the last
// round's collection still drains).
func (l *Loop) Injected() bool {
	return l.done || (l.round == l.rounds-1 && l.pending == 0)
}

// Drained reports whether every round has closed (workload.Driver: barrier
// successors may start).
func (l *Loop) Drained() bool { return l.done }
