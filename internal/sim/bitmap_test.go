package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// scheduler is what the wake-ordering scenarios below need from an engine,
// so each can run on the real Engine and on listWalk and compare.
type scheduler interface {
	addTicker(Ticker) (wake, wakeNext func())
	addCommitter(Committer) (wake, wakeNext func())
	step()
	cycle() int64
	counts() (evaluated, skipped uint64)
}

type engineSched struct{ e *Engine }

func (s engineSched) addTicker(t Ticker) (func(), func()) { return wakes(s.e.AddTicker(t)) }
func (s engineSched) addCommitter(c Committer) (func(), func()) {
	return wakes(s.e.AddCommitter(c))
}
func (s engineSched) step()                    { s.e.Step() }
func (s engineSched) cycle() int64             { return s.e.Cycle() }
func (s engineSched) counts() (uint64, uint64) { return s.e.Evaluated(), s.e.Skipped() }

func wakes(h *Handle) (wake, wakeNext func()) { return h.Wake, h.WakeNext }

// listWalk is the reference the bitmap engine must match: one heap node per
// component with an awake flag and a next flag, and a walk over the whole
// registration-order list every cycle that turns next flags into awake ones
// when it ends. It stands for a sequential engine, or for one shard of a
// sharded one (see shardedWalk).
type listWalk struct {
	now                 int64
	tickers, committers []*listNode
	evaluated, skipped  uint64
}

type listNode struct {
	ticker    Ticker
	committer Committer
	idler     Idler
	awake     bool
	next      bool // woken by WakeNext since the list's walk last ended
}

func (n *listNode) wake()     { n.awake = true }
func (n *listNode) wakeNext() { n.next = true }

func (n *listNode) eval(cycle int64) {
	if n.ticker != nil {
		n.ticker.Tick(cycle)
	} else {
		n.committer.Commit(cycle)
	}
}

func (l *listWalk) addTicker(t Ticker) (func(), func()) {
	n := &listNode{ticker: t, awake: true}
	n.idler, _ = t.(Idler)
	l.tickers = append(l.tickers, n)
	return n.wake, n.wakeNext
}

func (l *listWalk) addCommitter(c Committer) (func(), func()) {
	n := &listNode{committer: c, awake: true}
	n.idler, _ = c.(Idler)
	l.committers = append(l.committers, n)
	return n.wake, n.wakeNext
}

func (l *listWalk) cycle() int64             { return l.now }
func (l *listWalk) counts() (uint64, uint64) { return l.evaluated, l.skipped }

func (l *listWalk) step() {
	l.walk(l.tickers)
	l.walk(l.committers) // reads the list now: a committer registered during the tick phase commits this cycle
	l.now++
}

// walk evaluates the awake nodes of list at cycle l.now.
func (l *listWalk) walk(list []*listNode) {
	for _, n := range list {
		if !n.awake {
			l.skipped++
			continue
		}
		n.eval(l.now)
		l.evaluated++
		if n.idler != nil && n.idler.Idle() {
			n.awake = false
		}
	}
	for _, n := range list {
		if n.next {
			n.awake, n.next = true, false
		}
	}
}

func (l *listWalk) wakeAll() {
	for _, n := range l.tickers {
		n.awake = true
	}
	for _, n := range l.committers {
		n.awake = true
	}
}

// actor is a sleeping component whose evaluation is scripted: it logs
// itself, burns one unit of work and then runs act, which may wake others.
type actor struct {
	name string
	id   int64 // hashed into the scripted wake patterns
	log  *[]string
	work int
	act  func(a *actor, cycle int64)
}

func (a *actor) eval(cycle int64) {
	*a.log = append(*a.log, fmt.Sprintf("%d:%s", cycle, a.name))
	if a.work > 0 {
		a.work--
	}
	if a.act != nil {
		a.act(a, cycle)
	}
}

func (a *actor) Tick(cycle int64)   { a.eval(cycle) }
func (a *actor) Commit(cycle int64) { a.eval(cycle) }
func (a *actor) Idle() bool         { return a.work == 0 }

// onBoth runs scenario on the bitmap engine and on the list walk, checks
// that both evaluate the same components in the same order with the same
// counters, and returns the engine's log.
func onBoth(t *testing.T, scenario func(s scheduler, log *[]string)) []string {
	t.Helper()
	e := NewEngine()
	var got, want []string
	scenario(engineSched{e}, &got)
	ref := &listWalk{}
	scenario(ref, &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("evaluation order differs from the list walk\n got %v\nwant %v", got, want)
	}
	ge, gs := e.Evaluated(), e.Skipped()
	we, ws := ref.counts()
	if ge != we || gs != ws {
		t.Fatalf("evaluated/skipped = %d/%d, list walk %d/%d", ge, gs, we, ws)
	}
	return got
}

func wantLog(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
}

// A wake from component b reaches a later component of the same phase this
// cycle and an earlier one next cycle.
func TestWakeLaterRunsThisCycleEarlierRunsNext(t *testing.T) {
	got := onBoth(t, func(s scheduler, log *[]string) {
		var wakeA, wakeC func()
		a := &actor{name: "a", log: log}
		b := &actor{name: "b", log: log, work: 3, act: func(b *actor, cycle int64) {
			if cycle == 2 {
				wakeA()
				wakeC()
			}
		}}
		c := &actor{name: "c", log: log}
		wakeA, _ = s.addTicker(a)
		s.addTicker(b)
		wakeC, _ = s.addTicker(c)
		for i := 0; i < 5; i++ {
			s.step()
		}
	})
	wantLog(t, got, "0:a", "0:b", "0:c", "1:b", "2:b", "2:c", "3:a")
}

// A component that wakes itself while being evaluated still goes to sleep
// when it then reports Idle: the idle check comes after the evaluation.
func TestSelfWakeDuringTickThenIdleSleeps(t *testing.T) {
	got := onBoth(t, func(s scheduler, log *[]string) {
		var wake func()
		a := &actor{name: "a", log: log, work: 2, act: func(*actor, int64) { wake() }}
		wake, _ = s.addTicker(a)
		for i := 0; i < 4; i++ {
			s.step()
		}
	})
	wantLog(t, got, "0:a", "1:a")
}

// A committer woken from the tick phase commits in the same cycle.
func TestTickPhaseWakeOfCommitter(t *testing.T) {
	got := onBoth(t, func(s scheduler, log *[]string) {
		var wakeX func()
		tk := &actor{name: "t", log: log, work: 4, act: func(a *actor, cycle int64) {
			if cycle == 3 {
				wakeX()
			}
		}}
		x := &actor{name: "x", log: log}
		s.addTicker(tk)
		wakeX, _ = s.addCommitter(x)
		for i := 0; i < 6; i++ {
			s.step()
		}
	})
	wantLog(t, got, "0:t", "0:x", "1:t", "2:t", "3:t", "3:x")
}

// A committer woken with WakeNext from the tick phase of cycle c first
// commits in cycle c+1, as a link does for the flit staged on it in c.
func TestTickPhaseWakeNextOfCommitter(t *testing.T) {
	got := onBoth(t, func(s scheduler, log *[]string) {
		var nextX func()
		tk := &actor{name: "t", log: log, work: 4, act: func(a *actor, cycle int64) {
			if cycle == 3 {
				nextX()
			}
		}}
		x := &actor{name: "x", log: log}
		s.addTicker(tk)
		_, nextX = s.addCommitter(x)
		for i := 0; i < 6; i++ {
			s.step()
		}
	})
	wantLog(t, got, "0:t", "0:x", "1:t", "2:t", "3:t", "4:x")
}

// A WakeNext made in the commit phase runs a committer next cycle whether
// it sits before or after the waker in the list; a ticker, whose phase of
// the cycle is over, waits for the tick walk after next to end.
func TestCommitPhaseWakeNext(t *testing.T) {
	got := onBoth(t, func(s scheduler, log *[]string) {
		var nextA, nextC, nextT func()
		a := &actor{name: "a", log: log}
		b := &actor{name: "b", log: log, work: 3, act: func(b *actor, cycle int64) {
			if cycle == 2 {
				nextA()
				nextC()
				nextT()
			}
		}}
		c := &actor{name: "c", log: log}
		_, nextT = s.addTicker(&actor{name: "t", log: log})
		_, nextA = s.addCommitter(a)
		s.addCommitter(b)
		_, nextC = s.addCommitter(c)
		for i := 0; i < 6; i++ {
			s.step()
		}
	})
	wantLog(t, got, "0:t", "0:a", "0:b", "0:c", "1:b", "2:b", "3:a", "3:c", "4:t")
}

// Truncate drops a pending WakeNext with the component it names: the
// component registered at its index afterwards is not woken by it.
func TestTruncateDropsPendingWakeNext(t *testing.T) {
	for _, n := range []int{63, 64, 65, 129} {
		e := NewEngine()
		e.AddCommitter(tickCommitter{&sleeper{}}) // kept: word 0 is cut, not dropped
		m := e.Mark()
		var hs []*Handle
		for i := 0; i < n; i++ {
			hs = append(hs, e.AddCommitter(tickCommitter{&sleeper{}}))
		}
		e.Step() // everything sleeps
		hs[0].WakeNext()
		hs[n-1].WakeNext()
		e.Truncate(m)
		hs[0].WakeNext() // disarmed: a no-op
		var fresh []*sleeper
		for i := 0; i < n; i++ {
			fresh = append(fresh, &sleeper{})
			e.AddCommitter(tickCommitter{fresh[i]})
		}
		for i := 0; i < 3; i++ {
			e.Step()
		}
		for i, s := range fresh {
			if len(s.ticks) != 1 {
				t.Fatalf("n=%d: component %d evaluated in cycles %v, want once", n, i, s.ticks)
			}
		}
	}
}

// mix is a small deterministic hash for the scripted wake patterns.
func mix(a, b int64) uint64 {
	x := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xD1B54A32D192ED03
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	return x ^ x>>32
}

// Every component, when evaluated, takes on a hash-chosen amount of work
// and wakes hash-chosen components of both phases, at sizes that put the
// last component just below, on and just above a bitmap word boundary.
func TestBitmapMatchesListWalkAcrossWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 129} {
		// The ids keep the suffix they had beside the engine's adaptive mode.
		t.Run(fmt.Sprintf("n=%d/adaptive=false", n), func(t *testing.T) {
			got := onBoth(t, func(s scheduler, log *[]string) {
				wakes := make([]func(), 0, 2*n)
				nexts := make([]func(), 0, 2*n)
				act := func(a *actor, cycle int64) {
					h := mix(a.id, cycle)
					a.work = int(h % 3)
					// Below one wake in ten evaluations the fabric dies
					// out; above, everything stays awake. Half of them
					// are for the next cycle.
					switch h >> 8 % 20 {
					case 0:
						wakes[h>>16%uint64(len(wakes))]()
						wakes[h>>40%uint64(len(wakes))]()
					case 1:
						nexts[h>>16%uint64(len(nexts))]()
						nexts[h>>40%uint64(len(nexts))]()
					}
				}
				add := func(wake, next func()) {
					wakes, nexts = append(wakes, wake), append(nexts, next)
				}
				for i := 0; i < n; i++ {
					add(s.addTicker(&actor{name: fmt.Sprintf("t%d", i), id: int64(i), log: log, work: 1, act: act}))
				}
				for i := 0; i < n; i++ {
					add(s.addCommitter(&actor{name: fmt.Sprintf("c%d", i), id: int64(n + i), log: log, work: 1, act: act}))
				}
				for s.cycle() < 300 {
					if s.cycle()%50 == 49 {
						wakes[s.cycle()%int64(len(wakes))]() // an external kick, as a NIC enqueue is
					}
					s.step()
				}
			})
			if len(got) < 300 {
				t.Fatalf("scenario died out after %d evaluations; it tests nothing", len(got))
			}
		})
	}
}

func TestRestoreCycleAndAlwaysTickWakeAll(t *testing.T) {
	for _, n := range []int{63, 64, 65, 129} {
		e := NewEngine()
		sleepers := make([]*sleeper, 2*n)
		for i := range sleepers {
			sleepers[i] = &sleeper{}
			if i < n {
				e.AddTicker(sleepers[i])
			} else {
				e.AddCommitter(tickCommitter{sleepers[i]})
			}
		}
		check := func(step string, wantTicks int) {
			t.Helper()
			for i, s := range sleepers {
				if len(s.ticks) != wantTicks {
					t.Fatalf("n=%d after %s: component %d evaluated %d times, want %d", n, step, i, len(s.ticks), wantTicks)
				}
			}
			for _, p := range []*phase{&e.tickers, &e.committers} {
				if tail := p.size() & 63; tail != 0 && p.awake[len(p.awake)-1]>>tail != 0 {
					t.Fatalf("n=%d after %s: awake bits set past the last component: %x", n, step, p.awake[len(p.awake)-1])
				}
			}
		}
		e.RunUntil(never, 3) // everything sleeps after cycle 0
		check("Run", 1)
		e.RestoreCycle(100)
		if e.Cycle() != 100 {
			t.Fatalf("Cycle() = %d after RestoreCycle(100)", e.Cycle())
		}
		e.RunUntil(never, 3)
		check("RestoreCycle", 2)
		e.SetAlwaysTick(true)
		e.SetAlwaysTick(false)
		e.RunUntil(never, 3)
		check("SetAlwaysTick(true, false)", 3)
		if got, want := e.Evaluated(), uint64(3*2*n); got != want {
			t.Errorf("n=%d: Evaluated() = %d, want %d", n, got, want)
		}
		if got, want := e.Skipped(), uint64(6*2*n); got != want {
			t.Errorf("n=%d: Skipped() = %d, want %d", n, got, want)
		}
	}
}

// tickCommitter registers a sleeper in the commit phase.
type tickCommitter struct{ s *sleeper }

func (c tickCommitter) Commit(cycle int64) { c.s.Tick(cycle) }
func (c tickCommitter) Idle() bool         { return c.s.Idle() }

// A component registered from inside a Tick first runs the next cycle, in
// both engine modes, even when the registration moves the component slice
// under the running phase.
func TestRegisterDuringTickRunsNextCycle(t *testing.T) {
	scenario := func(s scheduler, log *[]string) {
		spawn := &actor{name: "spawn", log: log, work: 2}
		spawn.act = func(a *actor, cycle int64) {
			if cycle != 1 {
				return
			}
			for i := 0; i < 130; i++ { // past two bitmap words and several slice growths
				child := &actor{name: fmt.Sprintf("k%d", i), log: log, work: 1}
				if i%2 == 0 {
					s.addTicker(child)
				} else {
					s.addCommitter(child)
				}
			}
		}
		s.addTicker(spawn)
		s.addTicker(&actor{name: "late", log: log, work: 3})
		for i := 0; i < 4; i++ {
			s.step()
		}
	}
	got := onBoth(t, scenario)
	// Committers registered during the tick phase of cycle 1 are in place
	// before its commit phase starts, so they run in cycle 1; tickers wait
	// for cycle 2.
	want := []string{"0:spawn", "0:late", "1:spawn", "1:late"}
	for i := 1; i < 130; i += 2 {
		want = append(want, fmt.Sprintf("1:k%d", i))
	}
	want = append(want, "2:late")
	for i := 0; i < 130; i += 2 {
		want = append(want, fmt.Sprintf("2:k%d", i))
	}
	wantLog(t, got, want...)

	var naive []string
	e := NewEngine()
	e.SetAlwaysTick(true)
	scenario(engineSched{e}, &naive)
	for _, entry := range naive {
		if entry == "1:k0" {
			t.Fatalf("always-tick engine ran a ticker in the cycle that registered it: %v", naive)
		}
	}
	if got, want := e.Evaluated(), uint64(2+2+65+132+132); got != want {
		t.Errorf("always-tick Evaluated() = %d, want %d", got, want)
	}
}

// shardScheduler is the sharded counterpart of scheduler: components go to
// a shard or to the serial tick sub-phase.
type shardScheduler interface {
	addShardTicker(s int, t Ticker) (wake, wakeNext func())
	addShardCommitter(s int, c Committer) (wake, wakeNext func())
	addSerial(t Ticker)
	step()
	restore(cycle int64)
	cycle() int64
}

type shardedEngineSched struct{ e *Engine }

func (s shardedEngineSched) addShardTicker(sh int, t Ticker) (func(), func()) {
	return wakes(s.e.AddShardTicker(sh, t))
}
func (s shardedEngineSched) addShardCommitter(sh int, c Committer) (func(), func()) {
	return wakes(s.e.AddShardCommitter(sh, c))
}
func (s shardedEngineSched) addSerial(t Ticker) { s.e.AddTicker(t) }
func (s shardedEngineSched) step()              { s.e.Step() }
func (s shardedEngineSched) restore(c int64)    { s.e.RestoreCycle(c) }
func (s shardedEngineSched) cycle() int64       { return s.e.Cycle() }

// shardedWalk is the sharded reference: one listWalk per shard, each with
// sleep flags of its own, and a serial list evaluated in full
// between the tick phases and the commit phases. It runs the shards one
// after the other, which no component can tell from running them at once
// as long as no wake crosses a shard during a parallel phase.
type shardedWalk struct {
	now    int64
	shards []*listWalk
	serial []Ticker
	ran    uint64 // serial evaluations
}

func (w *shardedWalk) addShardTicker(s int, t Ticker) (func(), func()) {
	return w.shards[s].addTicker(t)
}
func (w *shardedWalk) addShardCommitter(s int, c Committer) (func(), func()) {
	return w.shards[s].addCommitter(c)
}
func (w *shardedWalk) addSerial(t Ticker) { w.serial = append(w.serial, t) }
func (w *shardedWalk) cycle() int64       { return w.now }

func (w *shardedWalk) step() {
	for _, l := range w.shards {
		l.now = w.now
		l.walk(l.tickers)
	}
	for _, t := range w.serial {
		t.Tick(w.now)
		w.ran++
	}
	for _, l := range w.shards {
		l.walk(l.committers)
	}
	w.now++
}

func (w *shardedWalk) restore(cycle int64) {
	w.now = cycle
	for _, l := range w.shards {
		l.wakeAll()
	}
}

// The scripted-wake scenario on 2 and 3 shards: every component, when
// evaluated, takes on a hash-chosen amount of work and wakes hash-chosen
// components of its own shard and of both phases, this cycle or the next; a
// serial ticker wakes components of any shard, as a driver's enqueue does;
// RestoreCycle lands mid-run. Shard 0's components never go idle while the others mostly are
// and keep skipping. Every shard's evaluation order and counters must match
// the list walk's.
func TestShardedBitmapMatchesListWalk(t *testing.T) {
	const cycles = 200
	for _, shards := range []int{2, 3} {
		for _, n := range []int{63, 64, 65, 129} {
			// adaptive=false: see TestBitmapMatchesListWalkAcrossWordBoundaries.
			t.Run(fmt.Sprintf("shards=%d/n=%d/adaptive=false", shards, n), func(t *testing.T) {
				scenario := func(s shardScheduler, logs [][]string) {
					wakes := make([][]func(), shards)
					nexts := make([][]func(), shards)
					var all, allNext []func()
					for sh := 0; sh < shards; sh++ {
						sh := sh
						act := func(a *actor, cycle int64) {
							h := mix(a.id, cycle)
							a.work = int(h % 4 / 2) // half go idle
							if sh == 0 {
								a.work++ // never idle
							}
							switch h >> 8 % 20 {
							case 0:
								wakes[sh][h>>16%uint64(len(wakes[sh]))]()
								wakes[sh][h>>40%uint64(len(wakes[sh]))]()
							case 1:
								nexts[sh][h>>16%uint64(len(nexts[sh]))]()
								nexts[sh][h>>40%uint64(len(nexts[sh]))]()
							}
						}
						add := func(wake, next func()) {
							wakes[sh], nexts[sh] = append(wakes[sh], wake), append(nexts[sh], next)
						}
						base := int64(sh * 2 * n)
						for i := 0; i < n; i++ {
							a := &actor{name: fmt.Sprintf("t%d", i), id: base + int64(i), log: &logs[sh], work: 1, act: act}
							add(s.addShardTicker(sh, a))
						}
						for i := 0; i < n; i++ {
							a := &actor{name: fmt.Sprintf("c%d", i), id: base + int64(n+i), log: &logs[sh], work: 1, act: act}
							add(s.addShardCommitter(sh, a))
						}
						all = append(all, wakes[sh]...)
						allNext = append(allNext, nexts[sh]...)
					}
					s.addSerial(&actor{name: "driver", id: -1, log: &logs[shards], work: 1, act: func(a *actor, cycle int64) {
						a.work = 1
						switch h := mix(a.id, cycle); h % 8 {
						case 0:
							all[h>>8%uint64(len(all))]()
							all[h>>32%uint64(len(all))]()
						case 1:
							allNext[h>>8%uint64(len(allNext))]()
							allNext[h>>32%uint64(len(allNext))]()
						}
					}})
					for i := 0; i < cycles; i++ {
						if i == cycles/2 {
							s.restore(s.cycle() + 1000) // wakes everything
						}
						s.step()
					}
				}

				e := NewShardedEngine(shards)
				defer e.Close()
				got := make([][]string, shards+1)
				scenario(shardedEngineSched{e}, got)

				ref := &shardedWalk{}
				for i := 0; i < shards; i++ {
					ref.shards = append(ref.shards, &listWalk{})
				}
				want := make([][]string, shards+1)
				scenario(ref, want)

				for sh := range got {
					if !reflect.DeepEqual(got[sh], want[sh]) {
						t.Fatalf("shard %d (serial if %d): evaluation order differs from the list walk\n got %v\nwant %v", sh, shards, got[sh], want[sh])
					}
				}
				var evaluated, skipped uint64
				for sh, l := range ref.shards {
					if ge, gs := e.shards[sh].evaluated, e.shards[sh].skipped; ge != l.evaluated || gs != l.skipped {
						t.Errorf("shard %d evaluated/skipped = %d/%d, list walk %d/%d", sh, ge, gs, l.evaluated, l.skipped)
					}
					evaluated += l.evaluated
					skipped += l.skipped
					if sh > 0 && (l.skipped == 0 || len(want[sh]) < cycles) {
						t.Errorf("shard %d: %d skipped, %d evaluations: it tests nothing", sh, l.skipped, len(want[sh]))
					}
				}
				if ge, gs := e.Evaluated(), e.Skipped(); ge != evaluated+ref.ran || gs != skipped {
					t.Errorf("Evaluated()/Skipped() = %d/%d, want %d/%d", ge, gs, evaluated+ref.ran, skipped)
				}
				if total := uint64(cycles * (shards*2*n + 1)); e.Evaluated()+e.Skipped() != total {
					t.Errorf("Evaluated()+Skipped() = %d, want every component every cycle = %d", e.Evaluated()+e.Skipped(), total)
				}
			})
		}
	}
}

// A remote WakeNext made in shard 0's tick phase runs shard 1's committer
// in the next cycle, on both sides of a bitmap word boundary, as the flit
// half of a link that crosses a shard boundary commits the cycle after the
// send; a remote Wake still runs it in the same cycle.
func TestRemoteWakeNextRunsNextCycle(t *testing.T) {
	e := NewShardedEngine(2)
	defer e.Close()
	var sleepers []*sleeper
	var remote []*Handle
	for i := 0; i < 65; i++ {
		sleepers = append(sleepers, &sleeper{})
		remote = append(remote, e.AddShardCommitter(1, tickCommitter{sleepers[i]}).Remote(0))
	}
	var log []string
	e.AddShardTicker(0, &actor{name: "t", log: &log, work: 7, act: func(a *actor, cycle int64) {
		switch cycle {
		case 3:
			remote[63].WakeNext()
			remote[64].WakeNext()
		case 5:
			remote[0].Wake()
		}
	}})
	for i := 0; i < 8; i++ {
		e.Step()
	}
	for i, want := range map[int][]int64{0: {0, 5}, 1: {0}, 63: {0, 4}, 64: {0, 4}} {
		if got := sleepers[i].ticks; !reflect.DeepEqual(got, want) {
			t.Errorf("committer %d ran in cycles %v, want %v", i, got, want)
		}
	}
}

// WakeNext leaves the always-tick engine's schedule alone: every component
// runs every cycle, whatever wakes they make.
func TestAlwaysTickIgnoresWakeNext(t *testing.T) {
	for _, n := range []int{63, 64, 65, 129} {
		e := NewEngine()
		e.SetAlwaysTick(true)
		var log []string
		var nexts []func()
		act := func(a *actor, cycle int64) {
			if h := mix(a.id, cycle); h%3 == 0 {
				nexts[h>>8%uint64(len(nexts))]()
			}
		}
		for i := 0; i < 2*n; i++ {
			a := &actor{name: fmt.Sprint(i), id: int64(i), log: &log, act: act}
			var h *Handle
			if i < n {
				h = e.AddTicker(a)
			} else {
				h = e.AddCommitter(a)
			}
			nexts = append(nexts, h.WakeNext)
		}
		const cycles = 10
		for i := 0; i < cycles; i++ {
			e.Step()
		}
		if len(log) != cycles*2*n || e.Evaluated() != cycles*2*uint64(n) || e.Skipped() != 0 {
			t.Fatalf("n=%d: %d log entries, evaluated/skipped %d/%d, want every component every cycle (%d)",
				n, len(log), e.Evaluated(), e.Skipped(), cycles*2*n)
		}
		for i, entry := range log {
			if want := fmt.Sprintf("%d:%d", i/(2*n), i%(2*n)); entry != want {
				t.Fatalf("n=%d: log[%d] = %s, want %s", n, i, entry, want)
			}
		}
		// The walk folds next bits in as the tracked one does: after the
		// commit phase no committer's is left pending.
		for w, bits := range e.committers.next {
			if bits != 0 {
				t.Fatalf("n=%d: next-cycle wakes left pending after the commit walk: word %d = %x", n, w, bits)
			}
		}
	}
}
