package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// never is the RunUntil predicate of a run that goes the whole budget.
func never() bool { return false }

type recorder struct {
	log   *[]string
	name  string
	phase string
}

func (r *recorder) Tick(cycle int64)   { *r.log = append(*r.log, r.name+"-tick") }
func (r *recorder) Commit(cycle int64) { *r.log = append(*r.log, r.name+"-commit") }

func TestEngineStepOrdering(t *testing.T) {
	var log []string
	e := NewEngine()
	e.AddTicker(&recorder{log: &log, name: "a"})
	e.AddTicker(&recorder{log: &log, name: "b"})
	e.AddCommitter(&recorder{log: &log, name: "c"})
	e.AddCommitter(&recorder{log: &log, name: "d"})

	e.Step()

	want := []string{"a-tick", "b-tick", "c-commit", "d-commit"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
	if e.Cycle() != 1 {
		t.Errorf("Cycle() = %d, want 1", e.Cycle())
	}
}

func TestEngineRun(t *testing.T) {
	e := NewEngine()
	e.RunUntil(never, 10)
	if e.Cycle() != 10 {
		t.Errorf("Cycle() = %d, want 10", e.Cycle())
	}
}

type countdown struct {
	n int
}

func (c *countdown) Tick(cycle int64) {
	if c.n > 0 {
		c.n--
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	c := &countdown{n: 7}
	e.AddTicker(c)

	got, err := e.RunUntil(func() bool { return c.n == 0 }, 100)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got != 7 {
		t.Errorf("exit cycle = %d, want 7", got)
	}
}

func TestEngineRunUntilBudget(t *testing.T) {
	e := NewEngine()
	_, err := e.RunUntil(func() bool { return false }, 5)
	if !errors.Is(err, ErrMaxCyclesExceeded) {
		t.Fatalf("err = %v, want ErrMaxCyclesExceeded", err)
	}
	if e.Cycle() != 5 {
		t.Errorf("Cycle() = %d, want 5", e.Cycle())
	}
}

func TestEngineRunUntilAlreadyDone(t *testing.T) {
	e := NewEngine()
	got, err := e.RunUntil(func() bool { return true }, 0)
	if err != nil || got != 0 {
		t.Fatalf("RunUntil = (%d, %v), want (0, nil)", got, err)
	}
}

// sleeper ticks, counts evaluations, and reports idle whenever it has no
// pending work units.
type sleeper struct {
	work  int
	ticks []int64
}

func (s *sleeper) Tick(cycle int64) {
	s.ticks = append(s.ticks, cycle)
	if s.work > 0 {
		s.work--
	}
}

func (s *sleeper) Idle() bool { return s.work == 0 }

func TestEngineSleepsIdleComponents(t *testing.T) {
	e := NewEngine()
	s := &sleeper{work: 3}
	e.AddTicker(s)

	e.RunUntil(never, 10)

	// Idle is checked after each tick: the cycle-2 tick drains the last
	// work unit, so the component sleeps from cycle 3 on.
	want := []int64{0, 1, 2}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", s.ticks, want)
	}
	if e.Skipped() != 7 {
		t.Errorf("Skipped() = %d, want 7", e.Skipped())
	}
	if e.Evaluated() != 3 {
		t.Errorf("Evaluated() = %d, want 3", e.Evaluated())
	}
}

func TestEngineWakeResumesEvaluation(t *testing.T) {
	e := NewEngine()
	s := &sleeper{work: 1}
	h := e.AddTicker(s)

	e.RunUntil(never, 5) // ticks at cycle 0, sleeps from cycle 1
	s.work = 2
	h.Wake()
	e.RunUntil(never, 5) // ticks at cycles 5,6, sleeps again

	want := []int64{0, 5, 6}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", s.ticks, want)
	}
	for i := range want {
		if s.ticks[i] != want[i] {
			t.Errorf("ticks[%d] = %d, want %d", i, s.ticks[i], want[i])
		}
	}
}

func TestEngineAlwaysTickDisablesSleeping(t *testing.T) {
	e := NewEngine()
	s := &sleeper{}
	e.AddTicker(s)
	e.SetAlwaysTick(true)

	e.RunUntil(never, 4)

	if len(s.ticks) != 4 {
		t.Fatalf("ticks = %v, want every cycle", s.ticks)
	}
	if e.Skipped() != 0 {
		t.Errorf("Skipped() = %d, want 0", e.Skipped())
	}
}

func TestEngineSetAlwaysTickWakesSleepers(t *testing.T) {
	e := NewEngine()
	s := &sleeper{}
	e.AddTicker(s)

	e.RunUntil(never, 3) // sleeps after cycle 0
	e.SetAlwaysTick(true)
	e.RunUntil(never, 2)

	want := []int64{0, 3, 4}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", s.ticks, want)
	}
}

func TestNilHandleWakeIsSafe(t *testing.T) {
	var h *Handle
	h.Wake() // must not panic
	(&Handle{}).Wake()
}

func TestEngineImplementsClock(t *testing.T) {
	var c Clock = NewEngine()
	if c.Cycle() != 0 {
		t.Errorf("Cycle() = %d, want 0", c.Cycle())
	}
}

// loggedSleeper is a sleeper that records its evaluations in a shared log.
type loggedSleeper struct {
	id   int
	work int
	log  *[]string
}

func (s *loggedSleeper) eval(phase string, cycle int64) {
	*s.log = append(*s.log, fmt.Sprintf("%s%d@%d", phase, s.id, cycle))
	if s.work > 0 {
		s.work--
	}
}

func (s *loggedSleeper) Tick(cycle int64)   { s.eval("t", cycle) }
func (s *loggedSleeper) Commit(cycle int64) { s.eval("c", cycle) }
func (s *loggedSleeper) Idle() bool         { return s.work == 0 }

// pokingDriver stands for a workload driver: registered after the fabric,
// never idle, and every few cycles it hands work to one fabric component
// and wakes it.
type pokingDriver struct {
	log     *[]string
	targets []*loggedSleeper
	wakes   []*Handle
}

func (d *pokingDriver) Tick(cycle int64) {
	*d.log = append(*d.log, fmt.Sprintf("d@%d", cycle))
	if cycle%3 == 0 {
		i := int(cycle/3*7) % len(d.targets)
		d.targets[i].work += 2
		d.wakes[i].Wake()
	}
}

// truncateFixture is an engine with a fabric of sleepers spanning more than
// one bitmap word in each phase, and the mark taken after registering it.
type truncateFixture struct {
	e      *Engine
	log    []string
	fabric []*loggedSleeper
	wakes  []*Handle
	mark   Mark
}

func newTruncateFixture() *truncateFixture {
	f := &truncateFixture{e: NewEngine()}
	for i := 0; i < 70; i++ {
		s := &loggedSleeper{id: i, log: &f.log}
		f.fabric = append(f.fabric, s)
		f.wakes = append(f.wakes, f.e.AddTicker(s))
	}
	for i := 70; i < 140; i++ {
		s := &loggedSleeper{id: i, log: &f.log}
		f.fabric = append(f.fabric, s)
		f.wakes = append(f.wakes, f.e.AddCommitter(s))
	}
	f.mark = f.e.Mark()
	return f
}

// drive registers a driver and runs the engine for n cycles.
func (f *truncateFixture) drive(n int64) *Handle {
	h := f.e.AddTicker(&pokingDriver{log: &f.log, targets: f.fabric, wakes: f.wakes})
	f.e.RunUntil(never, n)
	return h
}

// TestEngineTruncateReregisterMatchesFresh is the engine half of network
// reuse: after Truncate to the mark and Reset, registering a driver again
// and running gives the schedule and the Evaluated/Skipped split of a new
// engine, and nothing the dropped driver left behind can disturb it.
func TestEngineTruncateReregisterMatchesFresh(t *testing.T) {
	const cycles = 200

	fresh := newTruncateFixture()
	fresh.drive(cycles)

	used := newTruncateFixture()
	stale := used.drive(cycles / 2) // a different length: counters and sleep states differ
	committerStale := used.e.AddCommitter(&loggedSleeper{id: 999, work: 1 << 30, log: &used.log})
	used.e.RunUntil(never, 5)
	if _, err := used.e.RunUntil(func() bool { return false }, 3); err == nil || used.e.Err() == nil {
		t.Fatalf("RunUntil past its budget: err %v, Err() %v", err, used.e.Err())
	}
	used.e.Interrupt()
	used.e.SetWatchdog(&Watchdog{Window: 10, Progress: func() uint64 { return 0 }})

	used.e.Truncate(used.mark)
	used.e.Reset()
	if got := used.e.Mark(); got != used.mark {
		t.Fatalf("after Truncate the registration point is %+v, want the mark %+v", got, used.mark)
	}
	if used.e.Cycle() != 0 || used.e.Evaluated() != 0 || used.e.Skipped() != 0 ||
		used.e.Err() != nil || used.e.Interrupted() {
		t.Fatalf("after Reset: cycle %d evaluated %d skipped %d err %v interrupted %v",
			used.e.Cycle(), used.e.Evaluated(), used.e.Skipped(), used.e.Err(), used.e.Interrupted())
	}
	// The reset of the fabric's own state, which the network layer does.
	for _, s := range used.fabric {
		s.work = 0
	}
	used.log = used.log[:0]

	// A dropped component's handle is dead: it sets no bit, neither past
	// the list now nor on whatever takes its index next.
	stale.Wake()
	committerStale.Wake()
	for _, p := range []*phase{&used.e.tickers, &used.e.committers} {
		if len(p.awake) != (len(p.nodes)+63)>>6 {
			t.Fatalf("bitmap has %d words for %d components", len(p.awake), len(p.nodes))
		}
		if tail := len(p.nodes) & 63; tail != 0 && p.awake[len(p.awake)-1]>>tail != 0 {
			t.Fatalf("awake bit set at or above len(nodes)=%d: %b", len(p.nodes), p.awake[len(p.awake)-1])
		}
	}

	used.drive(cycles)
	stale.Wake() // would wake the new driver's slot if handles were reused

	if !reflect.DeepEqual(used.log, fresh.log) {
		t.Fatalf("schedule after truncate and re-register differs from a fresh engine's (%d vs %d evaluations logged)",
			len(used.log), len(fresh.log))
	}
	if used.e.Evaluated() != fresh.e.Evaluated() || used.e.Skipped() != fresh.e.Skipped() {
		t.Fatalf("evaluated/skipped %d/%d, fresh engine %d/%d",
			used.e.Evaluated(), used.e.Skipped(), fresh.e.Evaluated(), fresh.e.Skipped())
	}
	if fresh.e.Skipped() == 0 {
		t.Fatal("fixture never sleeps: the comparison would not see a stale awake bit")
	}
}

// TestEngineTruncateDropsOnlyLaterRegistrations checks the bookkeeping
// around the mark: a mark at the current point drops nothing, and after a
// truncate the dropped components no longer run while the kept ones do.
func TestEngineTruncateDropsOnlyLaterRegistrations(t *testing.T) {
	f := newTruncateFixture()
	f.e.Truncate(f.e.Mark())
	if got := f.e.Mark(); got != f.mark {
		t.Fatalf("truncating to the current point moved it: %+v, want %+v", got, f.mark)
	}
	f.drive(4)
	f.e.Truncate(f.mark)
	f.e.RunUntil(never, 6) // what the driver handed out drains; nothing hands out more
	f.log = f.log[:0]
	f.fabric[3].work = 1
	f.wakes[3].Wake()
	f.e.RunUntil(never, 2)
	if want := []string{"t3@10"}; !reflect.DeepEqual(f.log, want) {
		t.Fatalf("after truncate the engine ran %v, want %v", f.log, want)
	}
}

// TestEngineRunWithDropsTheDriver: a driver run through RunWith ticks for
// the run and not a cycle longer, whether the run reaches its predicate or
// its budget.
func TestEngineRunWithDropsTheDriver(t *testing.T) {
	f := newTruncateFixture()
	for _, budget := range []int64{100, 3} {
		d := &pokingDriver{log: &f.log, targets: f.fabric, wakes: f.wakes}
		start := f.e.Cycle()
		_, err := f.e.RunWith(d, func() bool { return f.e.Cycle() == start+5 }, budget)
		if (err != nil) != (budget < 5) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
		if got := f.e.Mark(); got != f.mark {
			t.Fatalf("budget %d: RunWith left the registration point at %+v, want %+v", budget, got, f.mark)
		}
		f.log = f.log[:0]
		f.e.RunUntil(never, 8)
		for _, entry := range f.log {
			if entry[0] == 'd' {
				t.Fatalf("budget %d: the driver ticked after its run: %v", budget, f.log)
			}
		}
	}
}
