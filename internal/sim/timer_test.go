package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// napper sleeps until a cycle it knows: every evaluation before that cycle
// does nothing but arm the timer again, the one at (or after) it is logged
// and names the next, period cycles on. With period 0 it sleeps for good.
type napper struct {
	wake   *Handle
	until  int64
	period int64
	evals  []int64 // the cycles of the evaluations that did something
}

func (n *napper) Tick(cycle int64) {
	if cycle >= n.until {
		n.evals = append(n.evals, cycle)
		n.until = Never
		if n.period > 0 {
			n.until = cycle + n.period
		}
	}
	if n.until != Never {
		n.wake.WakeAt(n.until)
	}
}

func (n *napper) Commit(cycle int64) { n.Tick(cycle) }
func (n *napper) Idle() bool         { return true }

// addNapper registers a napper that first acts at cycle until.
func addNapper(e *Engine, until, period int64) *napper {
	n := &napper{until: until, period: period}
	n.wake = e.AddTicker(n)
	return n
}

// bystanders registers n components that go to sleep for good in their
// first evaluation, so that the counters have something to count.
func bystanders(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.AddTicker(&sleeper{})
	}
}

// checkAccounting holds the engine to Evaluated()+Skipped() = cycles x
// components, jumped cycles included.
func checkAccounting(t *testing.T, e *Engine, components int) {
	t.Helper()
	if got, want := e.Evaluated()+e.Skipped(), uint64(e.Cycle())*uint64(components); got != want {
		t.Errorf("Evaluated()+Skipped() = %d+%d = %d at cycle %d, want %d components every cycle = %d",
			e.Evaluated(), e.Skipped(), got, e.Cycle(), components, want)
	}
}

func TestTimerFiresInItsCycleAndTheClockJumpsThere(t *testing.T) {
	for _, alwaysTick := range []bool{false, true} {
		e := NewEngine()
		e.SetAlwaysTick(alwaysTick)
		bystanders(e, 5)
		n := addNapper(e, 40, 25)
		e.RunUntil(never, 100)
		if want := []int64{40, 65, 90}; !reflect.DeepEqual(n.evals, want) {
			t.Errorf("alwaysTick=%v: acted at %v, want %v", alwaysTick, n.evals, want)
		}
		if e.Cycle() != 100 {
			t.Errorf("alwaysTick=%v: Run(100) ended at cycle %d", alwaysTick, e.Cycle())
		}
		checkAccounting(t, e, 6)
		switch {
		case alwaysTick && (e.Jumps() != 0 || e.JumpedCycles() != 0 || e.Skipped() != 0):
			t.Errorf("always-tick engine jumped %d cycles in %d jumps and skipped %d evaluations",
				e.JumpedCycles(), e.Jumps(), e.Skipped())
		case !alwaysTick && (e.Jumps() != 4 || e.JumpedCycles() != 96):
			// Cycles 0, 40, 65 and 90 are stepped; 1-39, 41-64, 66-89 and
			// 91-99 (the last one cut short by Run's own end) are not.
			t.Errorf("jumped %d cycles in %d jumps, want 96 in 4", e.JumpedCycles(), e.Jumps())
		}
	}
}

// A committer's timer works like a ticker's, and a Wake before the cycle
// leaves the timer armed: the early evaluation is the no-op it promised.
func TestTimerOfACommitterSurvivesAnEarlyWake(t *testing.T) {
	e := NewEngine()
	n := &napper{until: 30}
	n.wake = e.AddCommitter(n)
	e.RunUntil(never, 10)
	n.wake.Wake()
	e.RunUntil(never, 40)
	if want := []int64{30}; !reflect.DeepEqual(n.evals, want) {
		t.Errorf("acted at %v, want %v", n.evals, want)
	}
	if e.Evaluated() != 3 { // cycle 0, the early wake at 10, the timer at 30
		t.Errorf("Evaluated() = %d, want 3", e.Evaluated())
	}
	checkAccounting(t, e, 1)
}

func TestTimerArmedForThePastFiresInTheNextEvaluation(t *testing.T) {
	e := NewEngine()
	n := addNapper(e, 50, 0)
	e.RunUntil(never, 60) // acted at 50, asleep for good since
	n.until = 20
	n.wake.WakeAt(20)
	e.RunUntil(never, 5)
	if want := []int64{50, 60}; !reflect.DeepEqual(n.evals, want) {
		t.Errorf("acted at %v, want %v", n.evals, want)
	}
}

// Step never jumps.
func TestStepAdvancesOneCycleWhateverIsArmed(t *testing.T) {
	e := NewEngine()
	addNapper(e, 1000, 0)
	for i := 0; i < 20; i++ {
		e.Step()
	}
	if e.Cycle() != 20 || e.Jumps() != 0 {
		t.Fatalf("20 Steps: cycle %d, %d jumps", e.Cycle(), e.Jumps())
	}
	checkAccounting(t, e, 1)
}

// The places a jump must stop at, each held to the always-tick engine: the
// end of RunUntil's budget, every poll of the watchdog, Run's last cycle.
func TestJumpLandsWhereSteppingWouldStop(t *testing.T) {
	type outcome struct {
		cycle  int64
		err    string
		polls  []int64
		jumped bool
	}
	build := func(alwaysTick bool) *Engine {
		e := NewEngine()
		e.SetAlwaysTick(alwaysTick)
		bystanders(e, 3)
		addNapper(e, 100_000, 0)
		return e
	}
	cases := []struct {
		name string
		run  func(e *Engine) outcome
	}{
		{"budget", func(e *Engine) outcome {
			cycle, err := e.RunUntil(func() bool { return false }, 777)
			if !errors.Is(err, ErrMaxCyclesExceeded) {
				return outcome{cycle: cycle, err: fmt.Sprint("not a budget error: ", err)}
			}
			return outcome{cycle: cycle, err: err.Error()}
		}},
		{"watchdog", func(e *Engine) outcome {
			var o outcome
			e.SetWatchdog(&Watchdog{Window: 400, Progress: func() uint64 {
				o.polls = append(o.polls, e.Cycle())
				return 7
			}})
			cycle, err := e.RunUntil(func() bool { return false }, 50_000)
			var stall *StallError
			if !errors.As(err, &stall) {
				return outcome{cycle: cycle, err: fmt.Sprint("not a stall: ", err)}
			}
			o.cycle, o.err = cycle, err.Error()
			if stall.Cycle != cycle {
				o.err += fmt.Sprintf(" (StallError.Cycle %d, engine at %d)", stall.Cycle, cycle)
			}
			return o
		}},
		{"run", func(e *Engine) outcome {
			e.RunUntil(never, 123)
			e.RunUntil(never, 1)
			return outcome{cycle: e.Cycle()}
		}},
		{"predicate", func(e *Engine) outcome {
			// A predicate that waits for a cycle names it as its budget.
			const at = 4321
			cycle, err := e.RunUntil(func() bool { return e.Cycle() >= at }, at-e.Cycle())
			return outcome{cycle: cycle, err: fmt.Sprint(err)}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			naive, tracked := build(true), build(false)
			want, got := c.run(naive), c.run(tracked)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tracked engine %+v, always-tick engine %+v", got, want)
			}
			if tracked.Jumps() == 0 || naive.Jumps() != 0 {
				t.Errorf("%d jumps on the tracked engine, %d on the always-tick one", tracked.Jumps(), naive.Jumps())
			}
			checkAccounting(t, tracked, 4)
			checkAccounting(t, naive, 4)
		})
	}
}

// An interrupt that arrives while the clock is being moved is honoured where
// the jump lands: at a cycle boundary, nothing evaluated since.
func TestInterruptIsHonouredWhereTheJumpLands(t *testing.T) {
	e := NewEngine()
	n := addNapper(e, 300, 0)
	polls := 0
	e.SetWatchdog(&Watchdog{Window: 800, Progress: func() uint64 {
		// Polled once by SetWatchdog, then after the interrupt check of an
		// iteration and before its jump.
		if polls++; polls == 2 {
			e.Interrupt()
		}
		return 0
	}})
	cycle, err := e.RunUntil(func() bool { return false }, 10_000)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// Polls fall every 100 cycles: the first, at 100, interrupts; the jump
	// that follows stops at the next poll's cycle, short of the timer.
	if cycle != 200 || len(n.evals) != 0 || e.Evaluated() != 1 {
		t.Errorf("stopped at cycle %d after %d evaluations, napper acted at %v; want cycle 200, one evaluation, none", cycle, e.Evaluated(), n.evals)
	}
}

// Everything asleep and no timer armed: nothing says when to look again, so
// the engine steps, as it did before there were timers.
func TestNothingArmedKeepsStepping(t *testing.T) {
	e := NewEngine()
	bystanders(e, 4)
	cycle, err := e.RunUntil(func() bool { return false }, 50)
	if !errors.Is(err, ErrMaxCyclesExceeded) || cycle != 50 {
		t.Fatalf("RunUntil = (%d, %v)", cycle, err)
	}
	if e.Jumps() != 0 || e.Evaluated() != 4 || e.Skipped() != 49*4 {
		t.Errorf("%d jumps, %d evaluated, %d skipped; want 0, 4, %d", e.Jumps(), e.Evaluated(), e.Skipped(), 49*4)
	}
}

// The state paths: whatever wakes everything drops the timers and the
// sleepers arm them again; Truncate takes a dropped component's timer with
// it; Reset leaves nothing of the run behind.
func TestTimersThroughRestoreTruncateAndReset(t *testing.T) {
	e := NewEngine()
	bystanders(e, 2)
	keep := addNapper(e, 500, 0)
	mark := e.Mark()
	drop := addNapper(e, 200, 0)
	e.RunUntil(never, 100) // cycle 0 stepped, one jump to 100

	e.Truncate(mark)
	e.RunUntil(never, 200) // one jump to 300, over 200 where nothing is left to fire
	if len(drop.evals) != 0 || e.Jumps() != 2 {
		t.Errorf("after Truncate: the dropped component acted at %v, %d jumps (want 2: a stale timer stops the clock on the way)", drop.evals, e.Jumps())
	}

	e.RestoreCycle(350)    // wakes everything and drops the timers
	e.RunUntil(never, 250) // 350 stepped (the sleeper arms 500 again), one jump to 500, stepping from there
	if want := []int64{500}; !reflect.DeepEqual(keep.evals, want) || e.Jumps() != 3 || e.Cycle() != 600 {
		t.Errorf("after RestoreCycle: acted at %v (want %v), %d jumps (want 3), cycle %d (want 600)", keep.evals, want, e.Jumps(), e.Cycle())
	}
	// Four components for 100 cycles, three for the 200 and the 250 that were
	// run since; the 50 RestoreCycle moved the clock by were not simulated.
	if got := e.Evaluated() + e.Skipped(); got != 100*4+450*3 {
		t.Errorf("Evaluated()+Skipped() = %d, want %d", got, 100*4+450*3)
	}

	keep.until = 900
	keep.wake.WakeAt(900)
	e.Reset()
	if e.Cycle() != 0 || e.Jumps() != 0 || e.JumpedCycles() != 0 || e.Evaluated() != 0 || e.Skipped() != 0 {
		t.Fatalf("after Reset: cycle %d, %d jumps over %d cycles, %d evaluated, %d skipped",
			e.Cycle(), e.Jumps(), e.JumpedCycles(), e.Evaluated(), e.Skipped())
	}
	keep.until, keep.evals = Never, nil
	e.RunUntil(never, 1000)
	if len(keep.evals) != 0 || e.Jumps() != 0 {
		t.Errorf("a timer armed before Reset survived it: acted at %v, %d jumps", keep.evals, e.Jumps())
	}
}

// RunWith hands a driver that can take one the handle of its registration.
func TestRunWithHandsTheDriverItsHandle(t *testing.T) {
	e := NewEngine()
	bystanders(e, 2)
	d := &wakeable{napper: napper{until: 64, period: 64}}
	cycle, err := e.RunWith(d, func() bool { return len(d.evals) == 3 }, 10_000)
	if err != nil || cycle != 193 {
		t.Fatalf("RunWith = (%d, %v), want the cycle after the third nap, 193", cycle, err)
	}
	if e.Jumps() != 3 {
		t.Errorf("%d jumps, want 3", e.Jumps())
	}
	// The run is over: the handle is disarmed with the registration.
	d.wake.WakeAt(200)
	e.RunUntil(never, 100)
	if len(d.evals) != 3 {
		t.Errorf("the driver was evaluated after its run: %v", d.evals)
	}
}

type wakeable struct{ napper }

func (w *wakeable) SetWake(h *Handle) { w.wake = h }

// timedActor is the property test's component. An evaluation does something
// (and is logged) when the actor has work left, has been poked by a peer, or
// has reached the cycle it is sleeping until; otherwise it only arms its
// timer again. What it then does is a hash of its id and the cycle: take on
// work, name a cycle to sleep until (near, far or, unless it is restless,
// none), poke peers.
type timedActor struct {
	id int64
	// restless actors always name a cycle: they keep the run alive.
	restless bool
	wake     *Handle
	log      *[]int64 // cycle<<16 | id of every evaluation that did something
	peers    []*timedActor
	// pokes[i] wakes peers[i]: its own handle, or a remote one when the peer
	// runs in another lane.
	pokes []*Handle

	work  int
	until int64
	poked atomic.Bool
}

func (a *timedActor) eval(cycle int64) {
	poked := a.poked.Swap(false)
	if a.work == 0 && !poked && cycle < a.until {
		if a.until != Never {
			a.wake.WakeAt(a.until)
		}
		return
	}
	*a.log = append(*a.log, cycle<<16|a.id)
	h := mix(a.id, cycle)
	if a.work > 0 {
		a.work--
	} else {
		a.work = int(h % 3)
	}
	switch h >> 4 % 4 {
	case 0:
		a.until = cycle + 1 + int64(h>>8%400)
	case 1:
		a.until = cycle + 1 + int64(h>>8%4)
	default:
		a.until = Never
		if a.restless {
			a.until = cycle + 1 + int64(h>>8%97)
		}
	}
	if len(a.peers) > 0 && h>>20%3 == 0 {
		i := h >> 24 % uint64(len(a.peers))
		a.peers[i].poked.Store(true)
		a.pokes[i].Wake()
	}
	if a.until != Never {
		a.wake.WakeAt(a.until)
	}
}

func (a *timedActor) Tick(cycle int64)   { a.eval(cycle) }
func (a *timedActor) Commit(cycle int64) { a.eval(cycle) }

// Idle: no work left and no poke unanswered (an actor may poke itself).
func (a *timedActor) Idle() bool { return a.work == 0 && !a.poked.Load() }

// TestTimedSleepMatchesAlwaysTickOnEveryBackend drives random components
// with random sleep-until schedules and cross-wakes through the always-tick
// engine, the tracked one and sharded engines of 2 and 4 shards, and
// requires the same evaluations that did something, the same final cycle
// and, on every backend, Evaluated()+Skipped() = cycles x components.
//
// The components come in four groups of tickers and committers plus a
// serial group, registered group by group. A sharded engine gives each
// shard one or two whole groups and the serial group its serial sub-phases,
// so the pokes are legal on every backend: within a group, from a group to
// the serial group (through remote handles where the two are different
// lanes) and from the serial group to anyone.
func TestTimedSleepMatchesAlwaysTickOnEveryBackend(t *testing.T) {
	const groups, perGroup, serial = 4, 5, 3
	const components = groups*perGroup*2 + serial*2
	const real = 4000 // run until this many evaluations have done something

	type backend struct {
		name       string
		shards     int
		alwaysTick bool
	}
	run := func(seed int64, b backend) (logs [][]int64, e *Engine) {
		if b.shards > 0 {
			e = NewShardedEngine(b.shards)
		} else {
			e = NewEngine()
		}
		e.SetAlwaysTick(b.alwaysTick)
		logs = make([][]int64, groups+1)
		lane := func(g int) int { // the shard of group g, -1 for the engine's own lists
			if b.shards == 0 || g == groups {
				return -1
			}
			return g * b.shards / groups
		}
		var members [groups + 1][]*timedActor
		id := seed << 8
		add := func(g int, committer bool) {
			a := &timedActor{id: id & 0xffff, restless: g == groups, log: &logs[g], until: Never, work: 1}
			id++
			switch sh := lane(g); {
			case sh >= 0 && committer:
				a.wake = e.AddShardCommitter(sh, a)
			case sh >= 0:
				a.wake = e.AddShardTicker(sh, a)
			case committer:
				a.wake = e.AddCommitter(a)
			default:
				a.wake = e.AddTicker(a)
			}
			members[g] = append(members[g], a)
		}
		for g := 0; g < groups; g++ {
			for i := 0; i < perGroup; i++ {
				add(g, false)
			}
		}
		for i := 0; i < serial; i++ {
			add(groups, false)
		}
		for g := 0; g < groups; g++ {
			for i := 0; i < perGroup; i++ {
				add(g, true)
			}
		}
		for i := 0; i < serial; i++ {
			add(groups, true)
		}
		for g, group := range members {
			for _, a := range group {
				reach := append([]*timedActor(nil), group...)
				if g == groups {
					for _, other := range members[:groups] {
						reach = append(reach, other...)
					}
				} else {
					reach = append(reach, members[groups]...)
				}
				for _, p := range reach {
					h := p.wake
					if g != groups && lane(g) >= 0 && p.log == &logs[groups] {
						h = h.Remote(lane(g))
					}
					a.peers = append(a.peers, p)
					a.pokes = append(a.pokes, h)
				}
			}
		}
		done := func() bool {
			n := 0
			for _, l := range logs {
				n += len(l)
			}
			return n >= real
		}
		if _, err := e.RunUntil(done, 1_000_000); err != nil {
			t.Fatalf("seed %d, %s: %v", seed, b.name, err)
		}
		e.Close()
		return logs, e
	}

	backends := []backend{
		{name: "tracked"},
		{name: "shards=2", shards: 2},
		{name: "shards=4", shards: 4},
		{name: "shards=2+alwaystick", shards: 2, alwaysTick: true},
	}
	for seed := int64(1); seed <= 6; seed++ {
		want, naive := run(seed, backend{name: "alwaystick", alwaysTick: true})
		checkAccounting(t, naive, components)
		if naive.Jumps() != 0 || naive.Skipped() != 0 {
			t.Fatalf("seed %d: the always-tick engine jumped %d times and skipped %d evaluations", seed, naive.Jumps(), naive.Skipped())
		}
		for _, b := range backends {
			got, e := run(seed, b)
			for g := range want {
				if !reflect.DeepEqual(got[g], want[g]) {
					t.Fatalf("seed %d, %s: group %d (serial if %d) did something in other evaluations than on the always-tick engine\n got %v\nwant %v",
						seed, b.name, g, groups, got[g], want[g])
				}
			}
			if e.Cycle() != naive.Cycle() {
				t.Errorf("seed %d, %s: ended at cycle %d, the always-tick engine at %d", seed, b.name, e.Cycle(), naive.Cycle())
			}
			checkAccounting(t, e, components)
			if !b.alwaysTick && (e.Jumps() == 0 || e.Evaluated() >= naive.Evaluated()/2) {
				t.Errorf("seed %d, %s: %d jumps over %d of %d cycles, %d evaluations against the always-tick engine's %d: the schedule exercises nothing",
					seed, b.name, e.Jumps(), e.JumpedCycles(), e.Cycle(), e.Evaluated(), naive.Evaluated())
			}
			if b.alwaysTick && e.Jumps() != 0 {
				t.Errorf("seed %d, %s: an always-tick engine jumped", seed, b.name)
			}
		}
	}
}
