package noc

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
)

// Reuse (DESIGN.md §14): a sweep runs hundreds of short simulations on a
// handful of configurations, and building the fabric costs as much as
// running one of them. Acquire hands out a network a previous run released
// when one of the same Config is idle, and builds one with New otherwise;
// Release returns a network to exactly the state New left it in and parks
// it. Nothing turns reuse off: a caller that wants a fabric no one has run
// on calls New.

// fabrics holds the released networks, a free list per Config. Config is
// comparable and is the key as it stands: two values that differ only in a
// result-invariant field get two lists. What is idle is what Release parked,
// whatever the collector does meanwhile (a sync.Pool, the first version, is
// emptied by every collection, which made a sweep's allocations depend on
// when one fell). A list never holds more networks than its Config had
// leased at once, and two rules, neither of them tunable, bound how long it
// holds them: only the maxIdleConfigs Configs released to most recently
// keep a list, so a sweep over many Configs parks a few fabrics and not one
// per cell; and a list nobody has released to for idleFor is let go, key
// and all, so a process that has finished simulating does not hold its
// last fabrics for good.
var fabrics = struct {
	sync.Mutex
	idle map[Config]*idleList
	// expiring says that an expireIdle call is scheduled.
	expiring bool
}{idle: map[Config]*idleList{}}

// idleList is the parked networks of one Config and when the latest was
// parked.
type idleList struct {
	nets     []*Network
	released time.Time
}

const (
	// maxIdleConfigs bounds how many Configs have idle networks parked: the
	// paper artifacts alternate between two, an ablation sweeps one at a
	// time.
	maxIdleConfigs = 4
	// idleFor is how long a Config's idle networks outlive the latest
	// release to it: far longer than the gap between two cells of a sweep,
	// short against the life of a process that has gone on to something
	// else.
	idleFor = time.Second
)

// takeIdle removes and returns an idle network of cfg, nil when there is
// none. A list it empties stays, so the next release of the Config appends
// to it without allocating.
func takeIdle(cfg Config) *Network {
	fabrics.Lock()
	defer fabrics.Unlock()
	l := fabrics.idle[cfg]
	if l == nil || len(l.nets) == 0 {
		return nil
	}
	last := len(l.nets) - 1
	nw := l.nets[last]
	l.nets[last] = nil
	l.nets = l.nets[:last]
	return nw
}

// parkIdle adds a reset network to its Config's free list. Past
// maxIdleConfigs lists it lets one go: an empty one if there is one, else
// the one released to longest ago.
func parkIdle(nw *Network) {
	fabrics.Lock()
	defer fabrics.Unlock()
	l := fabrics.idle[nw.cfg]
	if l == nil {
		l = &idleList{}
		fabrics.idle[nw.cfg] = l
	}
	l.nets = append(l.nets, nw)
	l.released = time.Now()
	if len(fabrics.idle) > maxIdleConfigs {
		victim := nw.cfg
		for cfg, o := range fabrics.idle {
			v := fabrics.idle[victim]
			if (len(o.nets) == 0) != (len(v.nets) == 0) {
				if len(o.nets) == 0 {
					victim = cfg
				}
				continue
			}
			if o.released.Before(v.released) {
				victim = cfg
			}
		}
		delete(fabrics.idle, victim)
	}
	if !fabrics.expiring {
		fabrics.expiring = true
		expireLater()
	}
}

func expireLater() { time.AfterFunc(idleFor, func() { expireIdle(time.Now()) }) }

// expireIdle lets go of the lists nobody has released to in the idleFor
// before now, and comes back in another idleFor while any are left.
func expireIdle(now time.Time) {
	fabrics.Lock()
	defer fabrics.Unlock()
	for cfg, l := range fabrics.idle {
		if now.Sub(l.released) >= idleFor {
			delete(fabrics.idle, cfg)
		}
	}
	if fabrics.expiring = len(fabrics.idle) > 0; fabrics.expiring {
		expireLater()
	}
}

// pristine is the state of a just-built fabric in absolute encoding
// (flit.Encoder), kept once per kind of component rather than once per
// component: every NIC, every link and every sink of a network is built
// alike and starts in the same state, and routers differ only in which of
// their output ports are wired.
type pristine struct {
	routers         map[uint8][]byte // by Router.ConnectedOutputs
	link, nic, sink []byte
}

// capturePristine records the state of nw, which New has just returned.
func (nw *Network) capturePristine() *pristine {
	e := &nw.enc
	encode := func(c interface{ AppendState(*flit.Encoder) }) []byte {
		e.ResetAbsolute(nil)
		e.SetNow(nw.engine.Cycle())
		c.AppendState(e)
		return e.Bytes()
	}
	p := &pristine{routers: map[uint8][]byte{}, link: encode(nw.links[0]), nic: encode(nw.nics[0])}
	for _, r := range nw.routers {
		if _, ok := p.routers[r.ConnectedOutputs()]; !ok {
			p.routers[r.ConnectedOutputs()] = encode(r)
		}
	}
	if len(nw.sinks) > 0 {
		p.sink = encode(nw.sinks[0].ej)
	}
	e.ResetAbsolute(nil)
	return p
}

// reuse counts what Acquire and Release did, process-wide.
var reuse struct {
	built, reused, dropped, kept atomic.Uint64
	cycles, jumpedCycles, jumps  atomic.Uint64
}

// ReuseCounts is a reading of the process-wide reuse counters.
type ReuseCounts struct {
	// Built counts the networks Acquire had to construct, Reused the ones
	// it took from a pool; their sum is the number of successful Acquires.
	Built, Reused uint64
	// Dropped counts the networks Release closed instead of pooling, Kept
	// the ones it reset without reloading their components' state: no NIC
	// took work in the run (nic.NIC.Fed).
	Dropped, Kept uint64
	// Cycles sums the simulated cycles of every network Release was given,
	// JumpedCycles those among them the engine jumped over instead of
	// stepping through, in Jumps jumps (sim.Engine.Jumps).
	Cycles, JumpedCycles, Jumps uint64
}

// ReuseStats reads the reuse counters. Networks built by calling New
// directly appear in none of them.
func ReuseStats() ReuseCounts {
	return ReuseCounts{
		Built:   reuse.built.Load(),
		Reused:  reuse.reused.Load(),
		Dropped: reuse.dropped.Load(),
		Kept:    reuse.kept.Load(),

		Cycles:       reuse.cycles.Load(),
		JumpedCycles: reuse.jumpedCycles.Load(),
		Jumps:        reuse.jumps.Load(),
	}
}

// Acquire returns a network of configuration cfg for one run: a released
// one when a network of the same Config value is idle, else one built by
// New. The two are indistinguishable to the run — same schedule, same
// results, same snapshot bytes — except that a reused network's flit pool
// is warm, so FlitPool().Misses() can read lower. Pass the network to
// Release when the run is over, in place of Close.
func Acquire(cfg Config) (*Network, error) {
	if nw := takeIdle(cfg); nw != nil {
		reuse.reused.Add(1)
		nw.leased = true
		return nw, nil
	}
	nw, err := New(cfg)
	if err != nil {
		return nil, err
	}
	reuse.built.Add(1)
	if nw.engine.Sharded() || nw.tele != nil || nw.injector != nil {
		// Never pooled (see Release); leased stays false.
		return nw, nil
	}
	nw.pristine = nw.capturePristine()
	nw.leased = true
	return nw, nil
}

// Release ends the caller's use of a network: it must not touch the
// network, or anything reached through it, afterwards. Results a run
// returned stay valid; they share no memory with the fabric.
//
// A network that came from Acquire, runs the sequential engine without
// telemetry or fault injection, whose latest RunUntil reached its
// predicate, and that has drained (Quiescent, no flit outstanding) is
// reset to its just-built state and parked for the next Acquire of the same
// Config. Anything else — a sharded, observed or faulted fabric, a run that
// hit its cycle budget, was interrupted or stalled, one left with traffic
// in flight, a network built by New or restored from a snapshot — is closed
// and left to the collector, which is what happened to every network before
// reuse existed.
func (nw *Network) Release() {
	reuse.cycles.Add(uint64(nw.engine.Cycle()))
	reuse.jumpedCycles.Add(nw.engine.JumpedCycles())
	reuse.jumps.Add(nw.engine.Jumps())
	leased := nw.leased
	nw.leased = false // a second Release must not park the network twice
	if leased && nw.engine.Err() == nil && !nw.engine.Interrupted() &&
		nw.Quiescent() && nw.pool.Live() == 0 && nw.reset() == nil {
		parkIdle(nw)
		return
	}
	reuse.dropped.Add(1)
	nw.Close()
}

// reset returns a drained sequential network to the state New left it in.
// The fabric's state goes back the way a checkpoint resume loads it: every
// component's LoadState, here of the pristine bytes of its kind, so the
// list of what that state is stays in one place. What that state leaves to
// the caller is put back here: the engine (whatever was registered after
// the build is dropped and its handles disarmed; clock, evaluation and jump
// counters, timers, watchdog, interrupt flag, and the sleep/wake mode a test
// may have turned off), the packet-id counters, the per-NIC δ overrides
// workload layers apply, the receive callbacks on NICs and sinks, and the
// flit pool's counters. The pool's freelist and the grown ring buffers
// stay: they hold capacity, not state. Decoding allocates nothing: the
// pristine state holds no flit, set or observation.
//
// A pooled fabric takes work only through its NICs: a router's stations
// are fed by its own NIC, and links, routers and sinks only by other
// components. When no NIC was fed since the last load (nic.NIC.Fed), as
// after a run replayed from a trajectory table (round.Trajectories), no
// component left the state it was loaded with, and reset keeps it.
func (nw *Network) reset() error {
	nw.engine.Truncate(nw.built)
	nw.engine.Reset()
	nw.engine.SetAlwaysTick(false)
	nw.pool.ResetCounts()
	clear(nw.pidSeq)
	for _, n := range nw.nics {
		n.SetDelta(nw.nicCfg.Delta)
	}
	nw.OnReceive(nil)
	if !slices.ContainsFunc(nw.nics, (*nic.NIC).Fed) {
		reuse.kept.Add(1)
		return nil
	}

	p := nw.pristine
	for _, r := range nw.routers {
		if err := r.LoadState(nw.decoder(p.routers[r.ConnectedOutputs()], 0)); err != nil {
			return err
		}
	}
	for _, l := range nw.links {
		if err := l.LoadState(nw.decoder(p.link, 0), nw.pool, nw.cfg.Router.VCs); err != nil {
			return err
		}
	}
	for _, n := range nw.nics {
		if err := n.LoadState(nw.decoder(p.nic, 0)); err != nil {
			return err
		}
	}
	for _, s := range nw.sinks {
		if err := s.ej.LoadState(nw.decoder(p.sink, 0)); err != nil {
			return err
		}
	}
	return nil
}
