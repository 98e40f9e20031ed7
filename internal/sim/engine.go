// Package sim provides the synchronous cycle engine that drives the NoC
// simulator. Every hardware component registers with an Engine and is
// evaluated once per cycle in two phases: a tick phase in which components
// compute and stage their outputs, and a commit phase in which staged
// values (flits on links, returned credits) become visible to consumers.
// The two-phase scheme models registered synchronous hardware: nothing a
// component writes during a cycle can be observed by another component in
// the same cycle.
//
// Components are iterated in registration order and all simulator state is
// owned by the single goroutine calling Step, so identical configurations
// replay bit-for-bit identically.
//
// # Activity tracking
//
// At the paper's operating points most routers, links and NICs are idle
// most cycles, so the engine supports sleep/wake scheduling: a component
// that also implements Idler is put to sleep whenever it reports Idle after
// its evaluation, and is skipped on subsequent cycles until something wakes
// it through the Handle returned at registration (a flit or credit arriving
// on a link, a packet being enqueued at a NIC, ...).
//
// Sleeping preserves bit-exact determinism under one contract: a component
// reporting Idle must make its next evaluation a pure no-op (no state
// change, no counters, no external effects), and every transition out of
// idleness must be accompanied by a Handle.Wake call.
//
// Each phase keeps its components in one flat slice in registration order
// and their sleep state in a bitmap beside it, one bit per component. A
// tracked step visits only the set bits, lowest index first, so awake
// components are evaluated in exactly the order the naive engine would use
// and sixty-four sleeping components cost one word test. The current word
// is read again after every evaluation: a Wake that lands on a component
// registered later in the same phase takes effect this cycle, one that
// lands on an earlier (already passed) component takes effect next cycle —
// what a walk over the whole list would do. SetAlwaysTick(true) disables
// the skipping entirely, which the golden equivalence tests use to prove
// both paths produce identical results.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Ticker is evaluated in phase 1 of every cycle. Implementations read
// committed state from previous cycles and stage new outputs.
type Ticker interface {
	Tick(cycle int64)
}

// Committer is evaluated in phase 2 of every cycle, after every Ticker has
// run. Implementations publish staged outputs (e.g. move a flit across a
// link into the downstream buffer).
type Committer interface {
	Commit(cycle int64)
}

// Idler is optionally implemented by Tickers and Committers that can sleep.
// Idle is consulted right after the component's evaluation; returning true
// promises that evaluating the component again — in any later cycle and
// absent an intervening Wake — would be a pure no-op.
type Idler interface {
	Idle() bool
}

// Clock exposes the current cycle to components that are evaluated lazily:
// a sleeping component cannot rely on having observed every cycle number,
// so timestamps (injection cycles, δ deadlines) must come from the engine's
// clock instead of a remembered tick argument. *Engine implements Clock.
type Clock interface {
	Cycle() int64
}

// node is one registered component: a Ticker in the tick phase's list, a
// Committer in the commit phase's. It is never modified once registered.
type node struct {
	ticker    Ticker
	committer Committer
	idler     Idler
}

// phase is one phase's components in registration order, with bit i of
// awake set while nodes[i] is runnable. Bits at and above len(nodes) are
// always clear.
type phase struct {
	nodes []node
	awake []uint64
	// handleOf holds the handle add returned for nodes[i] at
	// [i/handleBlock][i%handleBlock], so that truncate can disarm the
	// handles of the components it drops. Blocks like the handles', so
	// that a large fabric's list is never copied to grow.
	handleOf [][]*Handle
	// handles is the block the next Handle is cut from. A full block is
	// left to the handles pointing into it and a new one started, so
	// handles never move and a fabric's worth costs one allocation per
	// handleBlock components instead of one each.
	handles []Handle
}

const handleBlock = 256

// add appends an awake component and returns its handle.
func (p *phase) add(n node) *Handle {
	i := len(p.nodes)
	p.nodes = append(p.nodes, n)
	if i>>6 == len(p.awake) {
		p.awake = append(p.awake, 0)
	}
	p.awake[i>>6] |= 1 << (i & 63)
	if len(p.handles) == cap(p.handles) {
		p.handles = make([]Handle, 0, handleBlock)
	}
	p.handles = append(p.handles, Handle{list: p, index: i})
	h := &p.handles[len(p.handles)-1]
	if i/handleBlock == len(p.handleOf) {
		p.handleOf = append(p.handleOf, make([]*Handle, handleBlock))
	}
	p.handleOf[i/handleBlock][i%handleBlock] = h
	return h
}

// truncate drops the components registered at index n and after. Their
// handles are disarmed for good: a Wake through one must neither set a bit
// past the list nor run whatever is registered at that index next.
func (p *phase) truncate(n int) {
	if n >= len(p.nodes) {
		return
	}
	for i := n; i < len(p.nodes); i++ {
		slot := &p.handleOf[i/handleBlock][i%handleBlock]
		(*slot).list = nil
		*slot = nil
	}
	clear(p.nodes[n:])
	p.nodes = p.nodes[:n]
	p.awake = p.awake[:(n+63)>>6]
	if tail := n & 63; tail != 0 {
		p.awake[len(p.awake)-1] &= 1<<tail - 1
	}
}

// wakeAll marks every registered component runnable.
func (p *phase) wakeAll() {
	for w := range p.awake {
		p.awake[w] = ^uint64(0)
	}
	if tail := len(p.nodes) & 63; tail != 0 {
		p.awake[len(p.awake)-1] = 1<<tail - 1
	}
}

// Handle wakes one registered component. Handles are safe to share with
// the component's peers (links wake their downstream router, controllers
// wake the NIC they enqueue into) and a nil *Handle ignores Wake calls, so
// components can be used without an engine in unit tests. So does the
// handle of a component that Truncate has dropped.
type Handle struct {
	list  *phase
	index int
}

// Wake marks the component runnable again. Calling Wake on an already
// awake component (or on a nil handle) is a cheap no-op, so callers wake
// unconditionally on every potentially state-changing event. Duplicate
// wakes are coalesced with a read-before-write: at high load nearly every
// per-flit Wake hits an already awake component, and skipping the store
// keeps the bitmap's cache line clean.
func (h *Handle) Wake() {
	if h == nil || h.list == nil {
		return
	}
	w, bit := &h.list.awake[h.index>>6], uint64(1)<<(h.index&63)
	if *w&bit == 0 {
		*w |= bit
	}
}

// ErrMaxCyclesExceeded reports that RunUntil hit its cycle budget before
// its predicate became true. Callers typically treat it as a deadlock or
// livelock diagnosis.
var ErrMaxCyclesExceeded = errors.New("sim: max cycles exceeded")

// ErrInterrupted reports that RunUntil stopped early because Interrupt was
// called. The simulation is left at a clean cycle boundary: the interrupt
// is honored between steps, never inside one, so harvested state (stats,
// telemetry, profiles) is consistent.
var ErrInterrupted = errors.New("sim: interrupted")

// Adaptive-mode tuning: when at least adaptiveNum/adaptiveDen of the
// registered components were awake in a tracked step, the engine runs the
// next adaptiveBurst cycles naively (no awake checks, no Idle calls) and
// then re-arms activity tracking. The threshold is where per-component
// bookkeeping costs more than the few skips it buys; the burst length
// amortizes the re-arm (one full evaluate-and-sleep pass) to ~1.5%.
const (
	adaptiveNum   = 3
	adaptiveDen   = 4
	adaptiveBurst = 64
)

// lane is a tick list and a commit list walked by one goroutine, with the
// sleep state and the counters of that walk: all of a sequential engine,
// or one shard of a sharded one.
type lane struct {
	tickers    phase
	committers phase

	// Adaptive mode: when the still-awake fraction crosses the load
	// threshold, fall back to naive ticking for a burst of cycles, then
	// re-arm activity tracking.
	burst int // remaining naive-burst cycles
	load  int // tickers left awake by this cycle's tick phase

	evaluated uint64
	skipped   uint64
}

// Engine owns the simulated clock and the component lists.
// The zero value is ready to use, with activity tracking enabled and the
// adaptive high-load fallback off (see SetAdaptive; the network layer
// turns it on for fully wired fabrics).
type Engine struct {
	cycle int64
	// lane holds the AddTicker/AddCommitter components: the whole schedule
	// of a sequential engine, the serial sub-phases of a sharded one.
	lane
	alwaysTick bool
	adaptive   bool

	// Sharded backend (NewShardedEngine; see sharded.go). A non-empty
	// shards slice switches Step to the two-phase parallel schedule.
	shards []shard
	barrier

	// interrupted is set asynchronously (signal handlers) and polled by
	// RunUntil at cycle boundaries; see Interrupt.
	interrupted atomic.Bool
	// err is what the latest RunUntil returned; see Err.
	err error

	// Stall watchdog (SetWatchdog; see watchdog.go). Polled by RunUntil a
	// few times per window, between steps only.
	watchdog       *Watchdog
	wdLastProgress uint64
	wdLastCycle    int64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Cycle returns the number of completed cycles. During a Step it returns
// the cycle currently being evaluated, so it is the Clock components use
// to timestamp externally triggered work.
func (e *Engine) Cycle() int64 {
	return e.cycle
}

// RestoreCycle sets the simulated clock to c and wakes every registered
// component, in every shard of a sharded engine. Engine snapshots use it:
// a freshly built network restored onto mid-run state must resume at the
// captured cycle, and waking everything re-arms sleep/wake scheduling from
// scratch — by the Idle contract a spuriously woken component's next
// evaluation is a pure no-op, so the post-restore schedule matches the
// uninterrupted run bit for bit.
func (e *Engine) RestoreCycle(c int64) {
	e.cycle = c
	e.rearm()
}

// Reset returns the engine to cycle 0 in the state its registrations
// alone determine: every component awake, no burst running, the
// evaluation counters at zero, no watchdog, the interrupt flag and Err
// cleared. Registrations and the SetAlwaysTick/SetAdaptive modes are left
// alone. With Truncate it lets a built fabric be run again from scratch:
// the schedule and the Evaluated/Skipped split that follow are those of a
// new engine given the same registrations. Call between steps.
func (e *Engine) Reset() {
	e.lane.reset()
	for i := range e.shards {
		e.shards[i].reset()
	}
	e.cycle = 0
	e.interrupted.Store(false)
	e.err = nil
	e.SetWatchdog(nil)
}

func (l *lane) reset() {
	l.rearm()
	l.load, l.evaluated, l.skipped = 0, 0, 0
}

// rearm ends any naive burst and wakes every component of every lane.
func (e *Engine) rearm() {
	e.lane.rearm()
	for i := range e.shards {
		e.shards[i].rearm()
	}
}

func (l *lane) rearm() {
	l.burst = 0
	l.tickers.wakeAll()
	l.committers.wakeAll()
}

// SetAlwaysTick disables (true) or re-enables (false) sleep/wake
// scheduling. With alwaysTick every component is evaluated every cycle —
// the naive reference path used by the golden equivalence tests.
func (e *Engine) SetAlwaysTick(v bool) {
	e.alwaysTick = v
	if v {
		// Components that slept while tracking was on must not stay
		// skipped if tracking is re-enabled later mid-run: waking
		// everything keeps both toggle orders correct (an idle
		// evaluation is a no-op, so spurious wakes are harmless).
		e.rearm()
	}
}

// AlwaysTick reports whether sleep/wake scheduling is disabled.
func (e *Engine) AlwaysTick() bool { return e.alwaysTick }

// SetAdaptive enables or disables the high-load fallback (off by default;
// noc.New enables it): with it on, a tracked step in which at least 3/4 of
// the components stayed awake after their idle checks switches the engine
// to naive ticking for a burst of cycles, after which every component is
// woken and the next tracked step re-arms the sleep states. Naive steps
// evaluate every component in registration order — a superset of the
// tracked evaluation in which the extra calls are pure no-ops by the Idle
// contract — so toggling the mode never changes a schedule; it only moves
// the bookkeeping cost off the hot path when skipping pays for nothing.
func (e *Engine) SetAdaptive(v bool) {
	e.adaptive = v
	if !v {
		e.burst = 0
		for i := range e.shards {
			e.shards[i].burst = 0
		}
	}
}

// Adaptive reports whether the high-load naive fallback is enabled.
func (e *Engine) Adaptive() bool { return e.adaptive }

// Evaluated returns how many component evaluations ran; Skipped how many
// were elided by sleep/wake scheduling. Their sum is what the naive engine
// would have run, which makes the split a direct measure of the win. Both
// add up the lanes' own counters, so call them between steps.
func (e *Engine) Evaluated() uint64 {
	n := e.evaluated
	for i := range e.shards {
		n += e.shards[i].evaluated
	}
	return n
}

// Skipped returns the number of component evaluations elided because the
// component was asleep.
func (e *Engine) Skipped() uint64 {
	n := e.skipped
	for i := range e.shards {
		n += e.shards[i].skipped
	}
	return n
}

// AddTicker registers a phase-1 component. Order of registration is the
// order of evaluation. The returned handle wakes the component; callers
// that never sleep (components not implementing Idler) may ignore it.
func (e *Engine) AddTicker(t Ticker) *Handle {
	idler, _ := t.(Idler)
	return e.tickers.add(node{ticker: t, idler: idler})
}

// AddCommitter registers a phase-2 component. Order of registration is the
// order of evaluation.
func (e *Engine) AddCommitter(c Committer) *Handle {
	idler, _ := c.(Idler)
	return e.committers.add(node{committer: c, idler: idler})
}

// Mark is a point in the registration order of AddTicker and AddCommitter,
// taken by Engine.Mark and returned to by Engine.Truncate.
type Mark struct {
	tickers, committers int
}

// Mark returns the current registration point: Truncate(m) later drops
// exactly the components AddTicker and AddCommitter register from here on.
func (e *Engine) Mark() Mark {
	return Mark{tickers: len(e.tickers.nodes), committers: len(e.committers.nodes)}
}

// Truncate drops every component AddTicker and AddCommitter registered
// after m was taken, newest registrations included. The engine stops
// evaluating them, lets go of them, and turns their handles into no-ops; a
// component registered afterwards gets a new handle, so a stale Wake can
// never reach it. RunWith brackets a run this way, and a network that is
// reset for reuse truncates to the mark it took when it was built. Components of
// AddShardTicker/AddShardCommitter are the fabric itself and stay. Call
// between steps; a mark at or past the current point drops nothing.
func (e *Engine) Truncate(m Mark) {
	e.tickers.truncate(m.tickers)
	e.committers.truncate(m.committers)
}

// Step advances the simulation by exactly one cycle.
func (e *Engine) Step() {
	if len(e.shards) > 0 {
		e.stepSharded()
		return
	}
	e.lane.tick(e.cycle, e.alwaysTick)
	e.lane.commit(e.cycle, e.alwaysTick, e.adaptive)
	e.cycle++
}

// tick runs the lane's tick phase of one cycle: every component when
// tracking is off (naive) or a burst is running, else the awake ones.
func (l *lane) tick(cycle int64, naive bool) {
	if naive || l.burst > 0 {
		l.evaluated += uint64(l.tickers.runAll(cycle))
		return
	}
	ran, skipped, load := l.tickers.runAwake(cycle)
	l.evaluated += uint64(ran)
	l.skipped += uint64(skipped)
	l.load = load
}

// commit runs the lane's commit phase the way tick ran the tick phase and
// settles the adaptive fallback for the cycle.
func (l *lane) commit(cycle int64, naive, adaptive bool) {
	switch {
	case naive:
		l.evaluated += uint64(l.committers.runAll(cycle))
	case l.burst > 0:
		// Adaptive high-load fallback: the cycle ran naively (sleeping
		// components' evaluations are no-ops by the Idle contract, and
		// registration order is unchanged, so the schedule is
		// bit-identical). When the burst expires, wake everything so the
		// next tracked step re-evaluates each component once and re-arms
		// its sleep state.
		l.evaluated += uint64(l.committers.runAll(cycle))
		if l.burst--; l.burst == 0 {
			l.rearm()
		}
	default:
		ran, skipped, load := l.committers.runAwake(cycle)
		l.evaluated += uint64(ran)
		l.skipped += uint64(skipped)
		// load counts components still awake after their idle check — the
		// measure the adaptive fallback thresholds on. Counting evaluations
		// instead would deadlock the heuristic: the post-burst re-arm step
		// evaluates everything by construction, and would always re-trigger
		// the next burst regardless of the actual load.
		if adaptive && (l.load+load)*adaptiveDen >= (len(l.tickers.nodes)+len(l.committers.nodes))*adaptiveNum {
			l.burst = adaptiveBurst
		}
	}
}

// runAwake evaluates the phase's awake components in registration order
// and puts those that report Idle to sleep. It returns how many ran, how
// many were asleep and so passed over, and how many of those that ran
// stayed awake.
//
// Everything an evaluation can change is read again after it: the bitmap
// word (a Wake on a later component of this phase must run it this cycle,
// so bits above the one just evaluated are taken from the current word, not
// from a copy) and the slices themselves (a component may register another,
// which may move both). The component count is fixed on entry, so one
// registered during the phase first runs next cycle.
func (p *phase) runAwake(cycle int64) (ran, skipped, load int) {
	n := len(p.nodes)
	for w := 0; w<<6 < n; w++ {
		above := ^uint64(0) // bit positions not yet passed in this word
		for {
			m := p.awake[w] & above
			if m == 0 {
				break
			}
			b := bits.TrailingZeros64(m)
			i := w<<6 | b
			if i >= n {
				break
			}
			above = ^uint64(1) << b
			nd := &p.nodes[i] // stays good if the slice moves: nodes are immutable
			if nd.ticker != nil {
				nd.ticker.Tick(cycle)
			} else {
				nd.committer.Commit(cycle)
			}
			ran++
			if nd.idler != nil && nd.idler.Idle() {
				p.awake[w] &^= 1 << b
			} else {
				load++
			}
		}
	}
	return ran, n - ran, load
}

// runAll evaluates every component in registration order, awake or not,
// and returns how many it ran (one registered meanwhile waits a cycle).
func (p *phase) runAll(cycle int64) int {
	nodes := p.nodes
	for _, nd := range nodes {
		if nd.ticker != nil {
			nd.ticker.Tick(cycle)
		} else {
			nd.committer.Commit(cycle)
		}
	}
	return len(nodes)
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n int64) {
	for i := int64(0); i < n; i++ {
		e.Step()
	}
}

// Interrupt makes any in-progress or future RunUntil return ErrInterrupted
// at the next cycle boundary. Safe to call from any goroutine (nocsim's
// SIGINT handler uses it); the flag stays set so a run loop cannot race
// past it.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Engine) Interrupted() bool { return e.interrupted.Load() }

// RunUntil steps the simulation until done reports true (checked before
// each step) or the budget of maxCycles additional cycles is exhausted.
// It returns the cycle count at exit and ErrMaxCyclesExceeded on budget
// exhaustion, or ErrInterrupted if Interrupt was called.
// When a watchdog is installed (SetWatchdog), a no-progress window turns
// into a *StallError wrapping ErrStalled instead of a spin to the budget.
func (e *Engine) RunUntil(done func() bool, maxCycles int64) (int64, error) {
	e.err = e.runUntil(done, maxCycles)
	return e.cycle, e.err
}

// RunWith is RunUntil with driver registered as a ticker for the length of
// the run: added after everything registered so far, and dropped again
// (Truncate), along with anything registered meanwhile, when the run ends,
// however it ends. It is what the workload controllers' Run methods use, so
// a controller whose run is over no longer ticks.
func (e *Engine) RunWith(driver Ticker, done func() bool, maxCycles int64) (int64, error) {
	defer e.Truncate(e.Mark())
	e.AddTicker(driver)
	return e.RunUntil(done, maxCycles)
}

// Err returns the error the latest RunUntil ended with: nil when it reached
// its predicate (or none has run), else the budget, interrupt or stall
// error that cut it short and left the simulation mid-flight.
func (e *Engine) Err() error { return e.err }

func (e *Engine) runUntil(done func() bool, maxCycles int64) error {
	deadline := e.cycle + maxCycles
	var wdStride, wdNext int64
	if w := e.watchdog; w != nil && w.Progress != nil && w.Window > 0 {
		// Poll a few times per window: often enough that a stall is
		// reported within ~1.1 windows, rarely enough that the progress
		// sum is off the per-cycle path.
		wdStride = w.Window / 8
		if wdStride < 1 {
			wdStride = 1
		}
		wdNext = e.cycle + wdStride
	}
	for !done() {
		if e.interrupted.Load() {
			return ErrInterrupted
		}
		if e.cycle >= deadline {
			return fmt.Errorf("%w (budget %d)", ErrMaxCyclesExceeded, maxCycles)
		}
		if wdStride > 0 && e.cycle >= wdNext {
			wdNext = e.cycle + wdStride
			if stall := e.checkStall(); stall != nil {
				return stall
			}
		}
		e.Step()
	}
	return nil
}
