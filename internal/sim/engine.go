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
// it through the Handle returned at registration (a flit staged on a link,
// a flit arriving in a router's buffer, a packet being enqueued at a NIC,
// ...).
//
// Sleeping preserves bit-exact determinism under one contract: a component
// reporting Idle must make its next evaluation a pure no-op (no state
// change, no counters, no external effects), and every transition out of
// idleness must be accompanied by a wake: Handle.Wake for work the component
// may have in the current cycle, Handle.WakeNext for work that cannot be due
// before the next one (a link woken by Send or ReturnCredit: the latency is
// at least one cycle). Only a transition out of idleness needs one. A
// credit returned to a router or NIC that holds no flit and has nothing
// queued changes a counter its next evaluation does not act on, so it wakes
// nothing.
//
// Each phase keeps its components in one flat slice in registration order
// and their sleep state in a bitmap beside it, one bit per component. A
// tracked step visits only the set bits, lowest index first, so awake
// components are evaluated in exactly the order the naive engine would use
// and sixty-four sleeping components cost one word test. The current word
// is read again after every evaluation: a Wake that lands on a component
// registered later in the same phase takes effect this cycle, one that
// lands on an earlier (already passed) component takes effect next cycle —
// what a walk over the whole list would do. A WakeNext waits in a second
// bitmap that the end of the phase's walk folds in, so it takes effect next
// cycle whatever the index. SetAlwaysTick(true) disables
// the skipping entirely, which the golden equivalence tests use to prove
// both paths produce identical results.
//
// # Timed sleep
//
// A component that is waiting for a cycle it already knows (a δ deadline, the
// end of a round's compute time, the next record of a trace) sleeps until it:
// Handle.WakeAt arms the component's timer, the component reports Idle, and
// the timer sets its awake bit at the top of the phase in the cycle it names.
// Arming is part of every evaluation that leaves the component waiting (most
// components do it in Idle, which no naive step calls), so
// whatever wakes everything (RestoreCycle, SetAlwaysTick) may drop every
// timer: each sleeper arms its own again when it is next evaluated.
//
// When a step of Run, RunUntil or RunWith leaves nothing awake anywhere, the
// cycles up to the earliest timer are no-ops by the Idle contract, and the
// engine sets the clock to that cycle instead of stepping through them (see
// jump). Step always advances one cycle, and SetAlwaysTick(true) never jumps.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Never is the cycle of a timer that is not armed: later than any cycle a
// run reaches.
const Never = math.MaxInt64

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
// promises that evaluating the component again — in any later cycle before
// the one its timer is armed for (Handle.WakeAt), if it armed one during this
// evaluation or this call, and absent an intervening Wake or WakeNext — would
// be a pure no-op. Whoever changes the state Idle reads, so that the promise
// no longer holds, wakes the component; a change that leaves the next
// evaluation a no-op (a credit reaching a component with nothing to send)
// need not.
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

// phase is one phase's components in registration order, with bit i of
// awake set while component i is runnable. Bits at and above the
// component count are always clear.
type phase struct {
	// A phase holds Tickers (the tick phase) or Committers (the commit
	// phase): component i is tickers[i] or committers[i], and idlers[i] is
	// its Idler, nil when it never sleeps. An entry is never modified once
	// registered.
	tickers    []Ticker
	committers []Committer
	idlers     []Idler
	awake      []uint64
	// next holds the WakeNext bits set since the phase's walk last ended,
	// laid out like awake; the end of the walk folds them into awake, so
	// between steps it holds only what a commit phase or the caller set on
	// a ticker.
	next []uint64
	// wakeAt[i] is the cycle component i's timer fires, Never while it is
	// not armed, and armed lists the components whose timers are (once
	// each, in no order), so that firing visits those and not the rest.
	// due is at or before the earliest of them, so a cycle before due has
	// no timer to fire; like round.Loop's next-due word it is brought up to
	// date by the scan that fires.
	wakeAt []int64
	armed  []int32
	due    int64
	// mail[s] collects the wakes that reach the phase's components from
	// shard s while it runs in parallel with the phase's own lane
	// (Handle.Remote): a bitmap like awake (nothing else of the phase value
	// is used) that only shard s writes, and that the phase takes over into
	// awake when it next starts. Nil where no remote handle was made.
	mail []*phase
	// handleOf holds the handle add returned for component i at
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

// size returns the number of registered components.
func (p *phase) size() int { return len(p.idlers) }

// reserve makes room for n more components of the phase (tickers when
// tick), so that registering them copies no list.
func (p *phase) reserve(n int, tick bool) {
	if tick {
		p.tickers = slices.Grow(p.tickers, n)
	} else {
		p.committers = slices.Grow(p.committers, n)
	}
	p.idlers = slices.Grow(p.idlers, n)
	p.wakeAt = slices.Grow(p.wakeAt, n)
	p.armed = slices.Grow(p.armed, p.size()+n-len(p.armed))
	words := (p.size()+n+63)>>6 - len(p.awake)
	p.awake = slices.Grow(p.awake, words)
	p.next = slices.Grow(p.next, words)
}

// add appends an awake component, t or c, and returns its handle.
func (p *phase) add(t Ticker, c Committer, idler Idler) *Handle {
	i := p.size()
	if t != nil {
		p.tickers = append(p.tickers, t)
	} else {
		p.committers = append(p.committers, c)
	}
	p.idlers = append(p.idlers, idler)
	p.wakeAt = append(p.wakeAt, Never)
	if i>>6 == len(p.awake) {
		p.awake = append(p.awake, 0)
		p.next = append(p.next, 0)
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

// truncate drops the components registered at index n and after, their
// timers and pending next-cycle wakes with them. Their handles are disarmed
// for good: a Wake, WakeNext or WakeAt through one must neither set a bit
// past the list nor run whatever is registered at that index next.
func (p *phase) truncate(n int) {
	if n >= p.size() {
		return
	}
	for i := n; i < p.size(); i++ {
		slot := &p.handleOf[i/handleBlock][i%handleBlock]
		(*slot).list = nil
		*slot = nil
	}
	if len(p.tickers) > n {
		clear(p.tickers[n:])
		p.tickers = p.tickers[:n]
	}
	if len(p.committers) > n {
		clear(p.committers[n:])
		p.committers = p.committers[:n]
	}
	clear(p.idlers[n:])
	p.idlers = p.idlers[:n]
	p.wakeAt = p.wakeAt[:n]
	p.due = Never
	p.armed = slices.DeleteFunc(p.armed, func(i int32) bool { return int(i) >= n })
	for _, i := range p.armed {
		p.due = min(p.due, p.wakeAt[i])
	}
	words := (n + 63) >> 6
	p.awake, p.next = p.awake[:words], p.next[:words]
	if tail := n & 63; tail != 0 {
		p.awake[words-1] &= 1<<tail - 1
		p.next[words-1] &= 1<<tail - 1
	}
}

// wakeAll marks every registered component runnable and drops every timer:
// a component that is still waiting arms its own again when it is evaluated.
func (p *phase) wakeAll() {
	for w := range p.awake {
		p.awake[w] = ^uint64(0)
	}
	if tail := p.size() & 63; tail != 0 {
		p.awake[len(p.awake)-1] = 1<<tail - 1
	}
	for _, i := range p.armed {
		p.wakeAt[i] = Never
	}
	p.armed = p.armed[:0]
	p.due = Never
}

// asleep reports whether no component of the phase is runnable or about to
// be made so by a next-cycle or remote wake.
func (p *phase) asleep() bool {
	for w := range p.awake {
		if p.awake[w]|p.next[w] != 0 {
			return false
		}
	}
	for _, m := range p.mail {
		if m != nil && !m.asleep() {
			return false
		}
	}
	return true
}

// collect takes the remote wakes left since the phase last started over:
// Wake bits into awake, WakeNext bits into next, which the end of this walk
// folds into awake. A bit left by a handle whose component was truncated
// since is dropped with everything else past the list.
func (p *phase) collect() {
	for _, m := range p.mail {
		if m == nil {
			continue
		}
		p.take(m.awake, p.awake)
		p.take(m.next, p.next)
	}
}

// take moves the bits of from that name registered components into to and
// clears from.
func (p *phase) take(from, to []uint64) {
	for w, bits := range from {
		if bits == 0 {
			continue
		}
		from[w] = 0
		if w >= len(to) {
			continue
		}
		if tail := p.size() & 63; tail != 0 && w == len(to)-1 {
			bits &= 1<<tail - 1
		}
		to[w] |= bits
	}
}

// fold makes the components WakeNext named during the walk that just ended
// runnable, from the phase's next walk on.
func (p *phase) fold() {
	for w, bits := range p.next {
		if bits != 0 {
			p.awake[w] |= bits
			p.next[w] = 0
		}
	}
}

// fire wakes the components whose timers are due at cycle, disarming
// them, and brings due up to date. It visits the armed timers only.
func (p *phase) fire(cycle int64) {
	due := int64(Never)
	armed := p.armed[:0]
	for _, i := range p.armed {
		switch at := p.wakeAt[i]; {
		case at <= cycle:
			p.wakeAt[i] = Never
			p.awake[i>>6] |= 1 << (i & 63)
		case at == Never: // disarmed by WakeAt(Never)
		default:
			armed = append(armed, i)
			due = min(due, at)
		}
	}
	p.armed = armed
	p.due = due
}

// Handle wakes one registered component: Wake for the current cycle,
// WakeNext for the next, WakeAt for a cycle the component names itself.
// Handles are safe to share with the component's peers (links wake their
// downstream router, routers and NICs the link they send on, controllers
// wake the NIC they enqueue into) and a nil *Handle ignores every wake, so
// components can be used without an engine in unit tests. So does the
// handle of a component that Truncate has dropped.
type Handle struct {
	list  *phase
	index int
}

// Remote returns a handle on the same component for the peers in shard from
// of a sharded engine, which run in parallel with the lane that owns the
// component: a shard's ejector waking the serial dispatcher, a router
// sending on a link whose other end a neighbouring shard commits. Its Wake
// sets a bit in a bitmap that only shard from writes, so the single-writer
// rule of the parallel phases holds, and the bit is seen when the
// component's phase next starts. The peers must therefore run in a phase
// that ends before that one begins (shard tick phases wake serial tickers
// and any lane's committers), which also makes the component run in the
// cycle a same-lane wake would have run it in. The same holds for WakeNext,
// whose bit goes to the mail's own next bitmap: the woken phase takes it
// over when it starts and folds it in when its walk ends, so the component
// runs next cycle. That is right only because remote wakers run in tick
// phases (DESIGN.md §9): a bit left while the woken phase runs would be
// taken over one phase late, a Wake a cycle late and a WakeNext two. Make
// remote handles while wiring, before the first step; a timer is armed
// through the component's own handle only.
func (h *Handle) Remote(from int) *Handle {
	if h == nil || h.list == nil {
		return h
	}
	p := h.list
	for len(p.mail) <= from {
		p.mail = append(p.mail, nil)
	}
	if p.mail[from] == nil {
		p.mail[from] = &phase{}
	}
	m := p.mail[from]
	for len(m.awake) <= h.index>>6 {
		m.awake = append(m.awake, 0)
		m.next = append(m.next, 0)
	}
	return &Handle{list: m, index: h.index}
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

// WakeNext marks the component runnable from the next cycle on. The bit
// waits in the phase's next bitmap until the phase's walk ends, so a
// committer woken from the tick phase of cycle c first commits in cycle
// c+1, and a component woken from its own phase runs next cycle whatever
// its index. (A bit set after the phase's walk of the cycle, by a commit
// phase waking a ticker or between steps, waits for the walk after, and the
// component runs a cycle later: use Wake there.) It is the wake for work
// that cannot be due before the next cycle (a flit staged on a link with a
// latency of at least one cycle), and saves the evaluation a same-cycle
// Wake would spend on a component that can do nothing yet. Through a remote
// handle it sets a bit in the mail's next bitmap, which the woken phase
// takes over when it starts and folds in when it ends: the cycle a
// same-lane WakeNext gives, because remote wakers run in a phase that ends
// before the woken one starts (Remote).
func (h *Handle) WakeNext() {
	if h == nil || h.list == nil {
		return
	}
	p := h.list
	w, bit := &p.next[h.index>>6], uint64(1)<<(h.index&63)
	if *w&bit == 0 {
		*w |= bit
	}
}

// WakeAt arms the component's timer: it is marked runnable at the top of its
// phase in the given cycle (in its next evaluation's cycle when that one has
// passed), however soundly it sleeps until then. A component has one timer;
// arming it again replaces the cycle. The component arms its own timer from
// its own evaluation or from the Idle call that follows it (where the engine
// asks the only question a timer answers), every time that evaluation leaves
// it waiting for the cycle, and may then report Idle: the timer outlives an
// early Wake, but not a RestoreCycle or Reset, which wake the component and
// rely on it to arm the timer again. A nil or truncated handle ignores the
// call, so a component driven by hand (a scheduler ticking its phases, a
// unit test) need not know.
func (h *Handle) WakeAt(cycle int64) {
	if h == nil || h.list == nil {
		return
	}
	p := h.list
	if p.wakeAt[h.index] == Never {
		p.armed = append(p.armed, int32(h.index))
	}
	p.wakeAt[h.index] = cycle
	if cycle < p.due {
		p.due = cycle
	}
}

// IdleUntil is the Idle answer of a component whose latest evaluation was in
// cycle now and whose next work, absent a Wake, is in cycle at (Never: none):
// with work in the very next cycle it stays awake, otherwise it may sleep,
// and the timer is armed for at.
func (h *Handle) IdleUntil(now, at int64) bool {
	if at <= now+1 {
		return false
	}
	if at != Never {
		h.WakeAt(at)
	}
	return true
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

// lane is a tick list and a commit list walked by one goroutine, with the
// sleep state and the counters of that walk: all of a sequential engine,
// or one shard of a sharded one.
type lane struct {
	tickers    phase
	committers phase

	load int // components left awake by their idle checks in the latest tracked step

	evaluated uint64
	skipped   uint64
}

// quiet reports whether the lane's next step would evaluate nothing: every
// component is asleep. load answers for a busy lane without reading the
// bitmaps; a component woken after its own evaluation is not in load, so a
// zero is confirmed there.
func (l *lane) quiet() bool {
	return l.load == 0 && l.tickers.asleep() && l.committers.asleep()
}

// nextTimer returns a cycle at or before the lane's earliest armed timer,
// Never when none is armed.
func (l *lane) nextTimer() int64 { return min(l.tickers.due, l.committers.due) }

// components returns how many components the lane evaluates in a naive step.
func (l *lane) components() int { return l.tickers.size() + l.committers.size() }

// Engine owns the simulated clock and the component lists.
// The zero value is ready to use, with activity tracking enabled.
type Engine struct {
	cycle int64
	// lane holds the AddTicker/AddCommitter components: the whole schedule
	// of a sequential engine, the serial sub-phases of a sharded one.
	lane
	alwaysTick bool

	// jumps counts the times the clock was set forward over a quiet stretch,
	// jumpedCycles the cycles that passed that way (see jump).
	jumps, jumpedCycles uint64

	// Sharded backend (NewShardedEngine; see sharded.go). With a non-empty
	// shards slice Step runs the shards' two parallel phases around the
	// engine's own lists.
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
// component, in every shard of a sharded engine, dropping every timer.
// Engine snapshots use it: a freshly built network restored onto mid-run
// state must resume at the captured cycle, and waking everything re-arms
// sleep/wake scheduling from scratch — by the Idle contract a spuriously
// woken component's next evaluation is a pure no-op (in which a component
// waiting for a cycle arms its timer again), so the post-restore schedule
// matches the uninterrupted run bit for bit.
func (e *Engine) RestoreCycle(c int64) {
	e.cycle = c
	e.rearm()
}

// Reset returns the engine to cycle 0 in the state its registrations
// alone determine: every component awake, no timer armed, the evaluation
// and jump counters at zero, no watchdog, the interrupt flag and Err
// cleared. Registrations and the SetAlwaysTick mode are left alone. With
// Truncate it lets a built fabric be run again from scratch: the schedule
// and the Evaluated/Skipped split that follow are those of a new engine
// given the same registrations. Call between steps.
func (e *Engine) Reset() {
	e.lane.reset()
	for i := range e.shards {
		e.shards[i].reset()
	}
	e.cycle = 0
	e.jumps, e.jumpedCycles = 0, 0
	e.interrupted.Store(false)
	e.err = nil
	e.SetWatchdog(nil)
}

func (l *lane) reset() {
	l.rearm()
	l.load, l.evaluated, l.skipped = 0, 0, 0
}

// rearm wakes every component of every lane and drops their timers.
func (e *Engine) rearm() {
	e.lane.rearm()
	for i := range e.shards {
		e.shards[i].rearm()
	}
}

func (l *lane) rearm() {
	l.tickers.wakeAll()
	l.committers.wakeAll()
}

// SetAlwaysTick disables (true) or re-enables (false) sleep/wake
// scheduling. With alwaysTick every component is evaluated every cycle,
// timers are not consulted and the clock never jumps — the naive reference
// path used by the golden equivalence tests.
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
// component was asleep, those of the cycles the clock jumped over included.
func (e *Engine) Skipped() uint64 {
	n := e.skipped
	for i := range e.shards {
		n += e.shards[i].skipped
	}
	return n
}

// Jumps returns how many times a run set the clock forward over a stretch
// in which nothing was awake; JumpedCycles how many cycles passed that way,
// out of Cycle().
func (e *Engine) Jumps() uint64 { return e.jumps }

// JumpedCycles returns the cycles the clock jumped over; see Jumps.
func (e *Engine) JumpedCycles() uint64 { return e.jumpedCycles }

// AddTicker registers a phase-1 component. Order of registration is the
// order of evaluation. The returned handle wakes the component; callers
// that never sleep (components not implementing Idler) may ignore it.
func (e *Engine) AddTicker(t Ticker) *Handle {
	idler, _ := t.(Idler)
	return e.tickers.add(t, nil, idler)
}

// AddCommitter registers a phase-2 component. Order of registration is the
// order of evaluation.
func (e *Engine) AddCommitter(c Committer) *Handle {
	idler, _ := c.(Idler)
	return e.committers.add(nil, c, idler)
}

// Reserve makes room for the given numbers of AddTicker and AddCommitter
// registrations still to come, so that a fabric's worth of them allocates
// its lists once instead of growing them: a builder that knows its
// component count calls it first. Registering more than reserved still
// works.
func (e *Engine) Reserve(tickers, committers int) { e.lane.reserve(tickers, committers) }

func (l *lane) reserve(tickers, committers int) {
	l.tickers.reserve(tickers, true)
	l.committers.reserve(committers, false)
}

// Mark is a point in the registration order of AddTicker and AddCommitter,
// taken by Engine.Mark and returned to by Engine.Truncate.
type Mark struct {
	tickers, committers int
}

// Mark returns the current registration point: Truncate(m) later drops
// exactly the components AddTicker and AddCommitter register from here on.
func (e *Engine) Mark() Mark {
	return Mark{tickers: e.tickers.size(), committers: e.committers.size()}
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

// Step advances the simulation by exactly one cycle: the shards' tick phase
// (sharded engines; see sharded.go), the engine's own tick list, the shards'
// commit phase, the engine's own commit list.
func (e *Engine) Step() {
	cycle := e.cycle
	e.runShards(opTick)
	e.lane.tick(cycle, e.alwaysTick)
	e.runShards(opCommit)
	e.lane.commit(cycle, e.alwaysTick)
	e.cycle++
}

// jump sets the clock to the earliest armed timer, and not past limit, when
// the latest step left nothing awake in any lane. Every cycle in between
// would evaluate nothing (each sleeper promised no-ops until a Wake, which
// only an evaluation can issue, or until its timer), so the state the next
// step finds is the one stepping would have left; the cycles are credited
// to Skipped. It reports whether the clock moved. With nothing awake and no
// timer armed there is nowhere to jump to and the caller steps, as ever.
func (e *Engine) jump(limit int64) bool {
	if e.alwaysTick || !e.lane.quiet() {
		return false
	}
	to := e.lane.nextTimer()
	for i := range e.shards {
		s := &e.shards[i].lane
		if !s.quiet() {
			return false
		}
		to = min(to, s.nextTimer())
	}
	if to == Never {
		return false
	}
	n := min(to, limit) - e.cycle
	if n <= 0 {
		return false
	}
	e.lane.skipped += uint64(n) * uint64(e.lane.components())
	for i := range e.shards {
		s := &e.shards[i].lane
		s.skipped += uint64(n) * uint64(s.components())
	}
	e.cycle += n
	e.jumps++
	e.jumpedCycles += uint64(n)
	return true
}

// tick runs the lane's tick phase of one cycle: every component when
// tracking is off (naive), else the awake ones.
func (l *lane) tick(cycle int64, naive bool) {
	if naive {
		l.evaluated += uint64(l.tickers.runAll(cycle))
		return
	}
	ran, skipped, load := l.tickers.runAwake(cycle)
	l.evaluated += uint64(ran)
	l.skipped += uint64(skipped)
	l.load = load
}

// commit runs the lane's commit phase the way tick ran the tick phase.
func (l *lane) commit(cycle int64, naive bool) {
	if naive {
		l.evaluated += uint64(l.committers.runAll(cycle))
		return
	}
	ran, skipped, load := l.committers.runAwake(cycle)
	l.evaluated += uint64(ran)
	l.skipped += uint64(skipped)
	l.load += load
}

// runAwake wakes the components remote wakes were left for and those whose
// timers are due, evaluates the phase's awake components in registration
// order and puts those that report Idle to sleep. It returns how many ran,
// how many were asleep and so passed over, and how many of those that ran
// stayed awake.
//
// Everything an evaluation can change is read again after it: the bitmap
// word (a Wake on a later component of this phase must run it this cycle,
// so bits above the one just evaluated are taken from the current word, not
// from a copy) and the slices themselves (a component may register another,
// which may move both). The component count is fixed on entry, so one
// registered during the phase first runs next cycle.
func (p *phase) runAwake(cycle int64) (ran, skipped, load int) {
	p.collect()
	if cycle >= p.due {
		p.fire(cycle)
	}
	n := p.size()
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
			if i < len(p.tickers) {
				p.tickers[i].Tick(cycle)
			} else {
				p.committers[i].Commit(cycle)
			}
			ran++
			if idler := p.idlers[i]; idler != nil && idler.Idle() {
				p.awake[w] &^= 1 << b
			} else {
				load++
			}
		}
	}
	p.fold()
	return ran, n - ran, load
}

// runAll evaluates every component in registration order, awake or not,
// and returns how many it ran (one registered meanwhile waits a cycle). It
// folds the next-cycle wakes in as runAwake does, so that the bitmaps are
// right if tracking is turned back on.
func (p *phase) runAll(cycle int64) int {
	tickers, committers := p.tickers, p.committers
	for _, t := range tickers {
		t.Tick(cycle)
	}
	for _, c := range committers {
		c.Commit(cycle)
	}
	p.fold()
	return len(tickers) + len(committers)
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
//
// A stretch of cycles in which nothing is awake is jumped over, never past
// the end of the budget or the watchdog's next poll, so both errors come at
// the cycle they always came at and an interrupt is honoured where the jump
// lands. done is not consulted for the cycles in between: the state it reads
// does not change in them, but the clock does, so a predicate that waits for
// a cycle must make that cycle the end of its budget.
func (e *Engine) RunUntil(done func() bool, maxCycles int64) (int64, error) {
	e.err = e.runUntil(done, maxCycles)
	return e.cycle, e.err
}

// RunWith is RunUntil with driver registered as a ticker for the length of
// the run: added after everything registered so far, and dropped again
// (Truncate), along with anything registered meanwhile, when the run ends,
// however it ends. It is what workload.Run and the remaining Run methods
// use, so a controller whose run is over no longer ticks. A driver that sleeps (an
// Idler with a SetWake method) is handed the handle of its registration.
func (e *Engine) RunWith(driver Ticker, done func() bool, maxCycles int64) (int64, error) {
	defer e.Truncate(e.Mark())
	h := e.AddTicker(driver)
	if d, ok := driver.(interface{ SetWake(*Handle) }); ok {
		d.SetWake(h)
	}
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
		limit := deadline
		if wdStride > 0 {
			if e.cycle >= wdNext {
				wdNext = e.cycle + wdStride
				if stall := e.checkStall(); stall != nil {
					return stall
				}
			}
			limit = min(limit, wdNext)
		}
		if !e.jump(limit) {
			e.Step()
		}
	}
	return nil
}
