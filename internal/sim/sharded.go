package sim

import (
	"runtime"
	"sync/atomic"
)

// Sharded execution: NewShardedEngine partitions the per-cycle work across
// a fixed number of shards, each evaluated by its own persistent worker
// goroutine, while keeping schedules bit-identical to the sequential
// engine (DESIGN.md §9). Every cycle runs as
//
//	phase A   all shards tick in parallel      (AddShardTicker order)
//	barrier
//	serial    staged dispatch + drivers tick   (AddTicker order)
//	phase B   all shards commit in parallel    (AddShardCommitter order)
//	barrier
//	serial    committers, if any               (AddCommitter order)
//
// The determinism argument needs two properties from the caller's
// partition: (1) during a parallel phase, no two shards touch the same
// mutable state — the noc layer guarantees it by assigning each component
// to exactly one shard and splitting the commit of every link that crosses
// a shard boundary into a flit half (downstream shard) and a credit half
// (upstream shard); (2) any work whose order across shards is observable —
// ejection callbacks into drivers, the drivers themselves — runs on the
// serial sub-phase in the sequential engine's registration order. Under
// those two properties the parallel phases compute the same per-component
// state transitions as the sequential engine in some interleaving that no
// component can observe, so every cycle ends in the identical global
// state.
//
// Each shard is a lane of its own: the bitmap walk, the sleep state and the
// timers of the sequential engine, run by the shard's goroutine over the
// shard's components. Property (1) extends to the
// bitmaps and timers: a Handle from AddShardTicker/AddShardCommitter may be
// woken during a parallel phase only by a component of the same shard, and
// from anywhere on the serial sub-phases, when no worker runs. The serial
// sub-phases are a lane too, walked by the coordinator. A wake that has to
// cross lanes during a parallel phase goes through a remote handle
// (Handle.Remote), whose bit lands in a bitmap of the waking shard's own that
// the woken lane reads when its phase starts: an ejector that staged a
// delivery wakes the serial dispatcher with one, and the two ends of a link
// that crosses a shard boundary wake the half the other shard commits. Between steps the
// coordinator takes the clock jump of the sequential engine when every lane,
// the serial one included, is quiet.
//
// The barrier is one atomic epoch word. The coordinator (the goroutine
// calling Step, which also runs shard 0) publishes a phase by writing the
// operation and adding one to the epoch; every worker runs its shard and
// takes one off the pending count; the coordinator goes on when the count
// reads zero. Both sides wait by polling the word they wait on for a
// bounded budget, then park on a channel (see gate). With more shards than
// GOMAXPROCS polling would only take the processor from the goroutine
// being waited for, so waiters park at once.

// shard is one partition: its lane and the park point of the goroutine
// that runs it (the coordinator's, for shard 0), padded so that the
// counters two workers write do not share a cache line.
type shard struct {
	lane
	gate
	_ [64]byte
}

// workerOp is the operation a published phase asks of every worker.
type workerOp byte

const (
	opTick workerOp = iota
	opCommit
	opStop
)

// barrier is the coordinator's side of the phase barrier.
type barrier struct {
	epoch   atomic.Int64 // phases published so far
	pending atomic.Int64 // workers still to finish the published phase
	op      workerOp     // what that phase is; written before epoch moves
	started bool         // workers are running
	spin    bool         // waiters poll before parking
}

// Waiting budget, in polls of the awaited word: the first spinYield are
// back to back, the rest yield the processor in between. It covers the
// gaps a running simulation has (a serial sub-phase, the slower shard's
// excess), which are tens of microseconds, so only an engine that is not
// being stepped sends its workers to sleep.
const (
	spinYield  = 1 << 7
	spinBudget = 1 << 11
)

// gate is where one goroutine waits for a word another goroutine writes.
// The waiter polls, then parks on wake behind the parked flag; the writer
// calls release after every write the waiter may be waiting for. Flag and
// word are each stored before the other is loaded (waiter: flag then word;
// writer: word then flag), so at least one side sees the other and a
// wake-up cannot be lost. Whoever swaps the flag back owns the wake-up:
// the writer sends exactly one token, or the waiter goes on without one.
type gate struct {
	parked atomic.Bool
	wake   chan struct{}
}

// wait returns once word reads want.
func (g *gate) wait(word *atomic.Int64, want int64, spin bool) {
	for {
		for i := 0; ; i++ {
			if word.Load() == want {
				return
			}
			if !spin || i == spinBudget {
				break
			}
			if i >= spinYield {
				runtime.Gosched()
			}
		}
		g.parked.Store(true)
		if word.Load() == want && g.parked.CompareAndSwap(true, false) {
			return
		}
		// A token may be for an earlier value of the word (the writer can
		// reach release after the waiter has moved on and parked again),
		// so look at the word again.
		<-g.wake
	}
}

// release wakes the waiter if it is parked.
func (g *gate) release() {
	if g.parked.Load() && g.parked.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// NewShardedEngine returns an engine that evaluates n shards in parallel
// each cycle (n >= 1; a single shard runs inline with no goroutines, so
// shards=1 exercises the sharded machinery at sequential cost).
// Components are registered with AddShardTicker/AddShardCommitter;
// AddTicker and AddCommitter still work and feed the serial sub-phases.
// Call Close when done to stop the worker goroutines.
func NewShardedEngine(n int) *Engine {
	if n < 1 {
		n = 1
	}
	return &Engine{shards: make([]shard, n)}
}

// Sharded reports whether the engine runs the sharded two-phase schedule.
func (e *Engine) Sharded() bool { return len(e.shards) > 0 }

// AddShardTicker registers a phase-1 component with one shard. Within a
// shard, registration order is evaluation order; the caller must ensure
// components in different shards share no mutable state during the tick
// phase, the returned handle's component included: during a parallel phase
// only the shard's own components may Wake it (another shard's through a
// Handle.Remote of it).
func (e *Engine) AddShardTicker(s int, t Ticker) *Handle {
	idler, _ := t.(Idler)
	return e.shards[s].tickers.add(node{ticker: t, idler: idler})
}

// AddShardCommitter registers a phase-2 component with one shard, under
// the same isolation contract as AddShardTicker.
func (e *Engine) AddShardCommitter(s int, c Committer) *Handle {
	idler, _ := c.(Idler)
	return e.shards[s].committers.add(node{committer: c, idler: idler})
}

// startWorkers spawns the persistent shard workers on the first step: one
// goroutine per shard beyond the first (shard 0 runs inline on the
// stepping goroutine). Workers live until Close, so a cycle costs two
// epoch bumps, not goroutine churn — the allocation ratchet holds on the
// sharded path too.
func (e *Engine) startWorkers() {
	e.started = true
	e.spin = len(e.shards) <= runtime.GOMAXPROCS(0)
	for i := range e.shards {
		s := &e.shards[i]
		s.wake = make(chan struct{}, 1)
		if i > 0 {
			go e.work(s, e.epoch.Load())
		}
	}
}

// work is a worker's life: run the shard once for every epoch after seen.
// The loads of the epoch word order the plain reads of op, the clock and
// the mode flags after the coordinator's writes, and the pending count
// orders the coordinator's reads after everything the shard wrote.
func (e *Engine) work(s *shard, seen int64) {
	for {
		seen++
		s.wait(&e.epoch, seen, e.spin)
		op := e.op
		if op != opStop {
			s.run(op, e.cycle, e.alwaysTick)
		}
		if e.pending.Add(-1) == 0 {
			e.shards[0].release()
		}
		if op == opStop {
			return
		}
	}
}

// run evaluates one parallel phase of the lane.
func (l *lane) run(op workerOp, cycle int64, naive bool) {
	if op == opTick {
		l.tick(cycle, naive)
	} else {
		l.commit(cycle, naive)
	}
}

// publish starts a phase on every worker.
func (e *Engine) publish(op workerOp) {
	e.op = op
	e.pending.Store(int64(len(e.shards) - 1))
	e.epoch.Add(1)
	for i := 1; i < len(e.shards); i++ {
		e.shards[i].release()
	}
}

// Close stops the shard workers and returns when each has run its last
// instruction that touches the engine. Safe to call on any engine (a no-op
// without workers) and more than once; the engine must not be stepped
// after Close.
func (e *Engine) Close() {
	if !e.started {
		return
	}
	e.started = false
	e.publish(opStop)
	e.shards[0].wait(&e.pending, 0, e.spin)
}

// runShards runs one parallel phase: on the workers and, for shard 0,
// inline, returning when all have finished. A sequential engine has none.
func (e *Engine) runShards(op workerOp) {
	if len(e.shards) == 0 {
		return
	}
	if len(e.shards) > 1 {
		if !e.started {
			e.startWorkers()
		}
		e.publish(op)
	}
	e.shards[0].run(op, e.cycle, e.alwaysTick)
	if e.started {
		e.shards[0].wait(&e.pending, 0, e.spin)
	}
}
