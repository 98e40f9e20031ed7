// Package round holds the round state machine every workload controller
// runs (Sec. III-A, Fig. 4): compute until the nodes' operands are ready,
// release each one on its cycle, collect until the controller says the round
// is complete, open the next round. systolic.Controller,
// traffic.AccumulationController and collective.Driver embed a Loop by value
// and supply Hooks; what travels in a round, which NIC call carries it and
// how completion is judged stay with them (DESIGN.md §8).
package round

import (
	"math"

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
	// Advance runs once per cycle of an open round, after that cycle's
	// releases: the controller does its remaining per-cycle work (relays,
	// a broadcast leg) and reports whether the round is complete.
	Advance(cycle int64) (complete bool)
	// RoundClosed reports the latency, open to complete, of the round that
	// just closed.
	RoundClosed(latency int64)
}

// never is the ready cycle of a node with nothing left to release this
// round: already released, or not declared.
const never = math.MaxInt64

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
}

// SetTag assigns the workload tag Tag and NextSeq report
// (workload.Taggable; the scheduler calls it before Start). The zero tag
// reproduces the untagged encodings bit for bit.
func (l *Loop) SetTag(t flit.Tag) { l.tag = t }

// Tag returns the workload tag (zero standalone).
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
func (l *Loop) Tick(cycle int64) {
	if l.done {
		return
	}
	l.release(cycle)
	if !l.h.Advance(cycle) {
		return
	}
	l.h.RoundClosed(cycle - l.start)
	l.round++
	if l.round >= l.rounds {
		l.done = true
		return
	}
	l.begin(cycle)
}

func (l *Loop) release(cycle int64) {
	if cycle < l.nextDue {
		return
	}
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

// Run registers the loop with the engine for the length of the run and
// steps until every round has closed, returning the engine cycle at exit.
func (l *Loop) Run(e *sim.Engine, maxCycles int64) (int64, error) {
	return e.RunWith(l, l.Done, maxCycles)
}
