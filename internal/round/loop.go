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
	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/sim"
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
}

// Init prepares the loop to run the given number of rounds over nodes
// nodes under h. The first round opens at Start.
func (l *Loop) Init(h Hooks, nodes, rounds int) {
	l.h = h
	l.rounds = rounds
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

// SetTag assigns the workload tag Tag and NextSeq report
// (workload.Taggable; the scheduler calls it before Start). The zero tag
// reproduces the untagged encodings bit for bit.
func (l *Loop) SetTag(t flit.Tag) { l.tag = t }

// Tag returns the workload tag (zero when run alone).
func (l *Loop) Tag() flit.Tag { return l.tag }

// SetForeignPayloadHandler installs the hook Route hands other controllers'
// payloads to (workload.ForeignPayloadRouter).
func (l *Loop) SetForeignPayloadHandler(fn func(flit.Payload)) { l.foreign = fn }

// NextSeq allocates a payload sequence number namespaced by the workload
// tag, so concurrent controllers sharing a NIC's wait lists and stations
// never collide (zero tag: a bare counter from 1).
func (l *Loop) NextSeq() uint64 {
	l.seq++
	return uint64(l.tag)<<32 | l.seq
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
