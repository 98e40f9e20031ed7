package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// stamper is the one component a barrier test gives a shard in each phase.
// Its Tick stamps the shard's cell with the cycle; its Commit reads the
// next shard's cell, which is only safe, and only current, if a barrier
// stands between the two phases. Under -race an unordered pair of those
// accesses is reported, so the test checks the happens-before edges of the
// barrier and not just its counts.
type stamper struct {
	cells []int64
	self  int
	ticks int
	stale int // commits that did not see this cycle's stamp
}

func (s *stamper) Tick(cycle int64) {
	s.cells[s.self] = cycle + 1
	s.ticks++
}

func (s *stamper) Commit(cycle int64) {
	if s.cells[(s.self+1)%len(s.cells)] != cycle+1 {
		s.stale++
	}
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// waitFor polls cond, which some other goroutine makes true, for up to ten
// seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 20 ms. Close returns when a worker is done with the engine, not when its
// goroutine has exited, so under load workers that earlier tests closed can
// still be leaving; a base that counts one of them makes every later
// "<= base" wait a goroutine too lenient and every "base + workers" a
// goroutine too many.
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 20*time.Millisecond {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

func workersParked(e *Engine) bool {
	for i := 1; i < len(e.shards); i++ {
		if !e.shards[i].parked.Load() {
			return false
		}
	}
	return true
}

// barrierModes are the shard counts and processor counts the barrier tests
// run at: waiters spin when every shard can have a processor and park at
// once when not.
var barrierModes = []struct {
	shards, procs int
	spin          bool
}{
	{2, 2, true},
	{4, 4, true},
	{2, 1, false},
	{3, 2, false},
}

// barrierCycles is how long the barrier-only runs are. Spinning for a
// goroutine that has no core to run on burns the whole budget on every
// wait, so a host with fewer cores than a spinning mode has shards gives
// that mode a short run.
func barrierCycles(shards int, spin bool) int64 {
	if testing.Short() || (spin && runtime.NumCPU() < shards) {
		return 2_000
	}
	return 100_000
}

// Shards with nothing or next to nothing to do make every phase a bare
// barrier crossing: 200 000 of them in a row, in both waiting modes, with
// the stamps proving each crossing ordered the phases around it.
func TestBarrierOnlyPhases(t *testing.T) {
	for _, m := range barrierModes {
		for _, populated := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/procs=%d/populated=%v", m.shards, m.procs, populated), func(t *testing.T) {
				withProcs(m.procs, func() {
					e := NewShardedEngine(m.shards)
					defer e.Close()
					cells := make([]int64, m.shards)
					var stampers []*stamper
					if populated {
						for sh := 0; sh < m.shards; sh++ {
							s := &stamper{cells: cells, self: sh}
							stampers = append(stampers, s)
							e.AddShardTicker(sh, s)
							e.AddShardCommitter(sh, s)
						}
					}
					cycles := barrierCycles(m.shards, m.spin)
					e.RunUntil(never, cycles)
					if e.spin != m.spin {
						t.Errorf("spin = %v with %d shards on %d procs, want %v", e.spin, m.shards, m.procs, m.spin)
					}
					if e.Cycle() != cycles {
						t.Errorf("Cycle() = %d, want %d", e.Cycle(), cycles)
					}
					if got, want := e.Evaluated(), uint64(2*len(stampers))*uint64(cycles); got != want {
						t.Errorf("Evaluated() = %d, want %d", got, want)
					}
					for sh, s := range stampers {
						if int64(s.ticks) != cycles || s.stale != 0 {
							t.Errorf("shard %d: %d ticks (want %d), %d commits saw a stale stamp", sh, s.ticks, cycles, s.stale)
						}
					}
				})
			})
		}
	}
}

// An engine that is not being stepped sends its workers to sleep: they
// exhaust the spin budget and park, a later Step wakes them, and the run
// ends with every evaluation accounted for.
func TestBarrierWorkersParkWhenIdleAndResume(t *testing.T) {
	for _, m := range barrierModes {
		t.Run(fmt.Sprintf("shards=%d/procs=%d", m.shards, m.procs), func(t *testing.T) {
			withProcs(m.procs, func() {
				e := NewShardedEngine(m.shards)
				defer e.Close()
				cells := make([]int64, m.shards)
				stampers := make([]*stamper, m.shards)
				for sh := range stampers {
					stampers[sh] = &stamper{cells: cells, self: sh}
					e.AddShardTicker(sh, stampers[sh])
					e.AddShardCommitter(sh, stampers[sh])
				}
				const rounds, perRound = 5, 200
				for r := 0; r < rounds; r++ {
					e.RunUntil(never, perRound)
					waitFor(t, "every worker to park", func() bool { return workersParked(e) })
					time.Sleep(2 * time.Millisecond) // stay parked for a while
				}
				e.RunUntil(never, perRound)
				for sh, s := range stampers {
					if want := (rounds + 1) * perRound; s.ticks != want || s.stale != 0 {
						t.Errorf("shard %d: %d ticks (want %d), %d stale commits", sh, s.ticks, want, s.stale)
					}
				}
			})
		})
	}
}

// Close is safe before the first step, more than once, on a sequential
// engine, and whatever the workers are doing when it comes; afterwards the
// goroutines are gone.
func TestBarrierCloseStopsWorkers(t *testing.T) {
	// One base for every subtest (each runs on a goroutine of its own, hence
	// the one): each ends by waiting for it, so the next starts from it.
	base := settledGoroutines() + 1
	gone := func(t *testing.T) {
		t.Helper()
		waitFor(t, "worker goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	}

	t.Run("sequential", func(t *testing.T) {
		e := NewEngine()
		e.RunUntil(never, 3)
		e.Close()
		e.Close()
	})
	t.Run("before the first step", func(t *testing.T) {
		// The previous subtest's goroutine may still be leaving.
		gone(t)
		e := NewShardedEngine(3)
		e.Close()
		e.Close()
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%d goroutines, started with %d: an engine never stepped has no workers", n, base)
		}
	})
	for _, m := range barrierModes {
		t.Run(fmt.Sprintf("shards=%d/procs=%d/parked", m.shards, m.procs), func(t *testing.T) {
			withProcs(m.procs, func() {
				e := NewShardedEngine(m.shards)
				e.RunUntil(never, 10)
				waitFor(t, "one goroutine per worker shard while running", func() bool {
					return runtime.NumGoroutine() == base+m.shards-1
				})
				waitFor(t, "every worker to park", func() bool { return workersParked(e) })
				e.Close()
				gone(t)
				e.Close()
			})
		})
		t.Run(fmt.Sprintf("shards=%d/procs=%d/just stepped", m.shards, m.procs), func(t *testing.T) {
			withProcs(m.procs, func() {
				// Straight after a step the workers are wherever the mode
				// leaves them: polling the epoch word, or about to park.
				e := NewShardedEngine(m.shards)
				e.RunUntil(never, 10)
				e.Close()
				gone(t)
				e.Close()
			})
		})
	}
}
