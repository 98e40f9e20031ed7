package sim

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
// to exactly one shard and splitting every link's commit into a flit half
// (downstream shard) and a credit half (upstream shard); (2) any work
// whose order across shards is observable — ejection callbacks into
// drivers, the drivers themselves — runs on the serial sub-phase in the
// sequential engine's registration order. Under those two properties the
// parallel phases compute the same per-component state transitions as the
// sequential engine in some interleaving that no component can observe,
// so every cycle ends in the identical global state.
//
// Sharded engines run with always-tick semantics: components are not
// registered with wake handles and no sleep bookkeeping happens. The
// adaptive fallback (Stage 1) already showed per-component bookkeeping is
// a net loss at exactly the high loads where sharding pays, and skipping
// nothing keeps each shard's work deterministic without per-shard wake
// queues.

// shard holds one partition's component lists.
type shard struct {
	tickers    []Ticker
	committers []Committer
}

// workerOp selects the phase a signalled worker should run.
type workerOp byte

const (
	opTick workerOp = iota
	opCommit
)

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

// NumShards returns the shard count (0 for a sequential engine).
func (e *Engine) NumShards() int { return len(e.shards) }

// AddShardTicker registers a phase-1 component with one shard. Within a
// shard, registration order is evaluation order; the caller must ensure
// components in different shards share no mutable state during the tick
// phase.
func (e *Engine) AddShardTicker(s int, t Ticker) {
	e.shards[s].tickers = append(e.shards[s].tickers, t)
}

// AddShardCommitter registers a phase-2 component with one shard, under
// the same isolation contract as AddShardTicker.
func (e *Engine) AddShardCommitter(s int, c Committer) {
	e.shards[s].committers = append(e.shards[s].committers, c)
}

// startWorkers lazily spawns the persistent shard workers on the first
// step: one goroutine per shard beyond the first (shard 0 runs inline on
// the stepping goroutine). Workers live until Close so the per-cycle cost
// is two channel sends and a WaitGroup wait, not goroutine churn — the
// allocation ratchet holds on the sharded path too.
func (e *Engine) startWorkers() {
	if e.work != nil {
		return
	}
	e.work = make([]chan workerOp, len(e.shards)-1)
	for i := range e.work {
		ch := make(chan workerOp, 1)
		e.work[i] = ch
		s := &e.shards[i+1]
		go func() {
			for op := range ch {
				cycle := e.cycle
				switch op {
				case opTick:
					for _, t := range s.tickers {
						t.Tick(cycle)
					}
				case opCommit:
					for _, c := range s.committers {
						c.Commit(cycle)
					}
				}
				e.wg.Done()
			}
		}()
	}
}

// Close stops the shard workers. Safe to call on any engine (a no-op
// without workers) and more than once; the engine must not be stepped
// after Close.
func (e *Engine) Close() {
	for _, ch := range e.work {
		close(ch)
	}
	e.work = nil
}

// runShards fans one parallel phase out to the workers, runs shard 0's
// share inline, and waits for the barrier. The channel send/receive pairs
// and the WaitGroup establish the happens-before edges that publish each
// shard's writes to the coordinator (and, through the next phase's sends,
// to every other shard).
func (e *Engine) runShards(op workerOp) {
	e.wg.Add(len(e.work))
	for _, ch := range e.work {
		ch <- op
	}
	s := &e.shards[0]
	cycle := e.cycle
	switch op {
	case opTick:
		for _, t := range s.tickers {
			t.Tick(cycle)
		}
	case opCommit:
		for _, c := range s.committers {
			c.Commit(cycle)
		}
	}
	e.wg.Wait()
}

// stepSharded advances a sharded engine by one cycle.
func (e *Engine) stepSharded() {
	cycle := e.cycle
	if len(e.shards) == 1 {
		// Single shard: the full two-phase schedule, inline.
		s := &e.shards[0]
		for _, t := range s.tickers {
			t.Tick(cycle)
		}
		e.serialTick(cycle)
		for _, c := range s.committers {
			c.Commit(cycle)
		}
		e.serialCommit(cycle)
	} else {
		e.startWorkers()
		e.runShards(opTick)
		e.serialTick(cycle)
		e.runShards(opCommit)
		e.serialCommit(cycle)
	}
	for _, s := range e.shards {
		e.evaluated += uint64(len(s.tickers) + len(s.committers))
	}
	e.evaluated += uint64(len(e.tickers.nodes) + len(e.committers.nodes))
	e.cycle++
}

// serialTick runs the serial sub-phase between the tick and commit
// barriers: the components registered with AddTicker (the staged-ejection
// dispatcher first, then workload drivers and controllers), in
// registration order, unconditionally — always-tick semantics.
func (e *Engine) serialTick(cycle int64) {
	e.tickers.runAll(cycle)
}

// serialCommit runs any AddCommitter components after the parallel commit
// barrier. The wired network registers all links with shards, so this is
// normally empty; it exists so the AddCommitter API keeps working.
func (e *Engine) serialCommit(cycle int64) {
	e.committers.runAll(cycle)
}
