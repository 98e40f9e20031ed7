package noc

import (
	"sync"
	"sync/atomic"

	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/router"
)

// Reuse (DESIGN.md §14): a sweep runs hundreds of short simulations on a
// handful of configurations, and building the fabric costs as much as
// running one of them. Acquire hands out a network a previous run released
// when one of the same Config is idle, and builds one with New otherwise;
// Release returns a network to exactly the state New left it in and parks
// it. Nothing turns reuse off: a caller that wants a fabric no one has run
// on calls New.

// fabrics maps a Config to the sync.Pool of its released networks. Config
// is comparable and is the key as it stands: two values that differ only in
// a result-invariant field get two pools. A sync.Pool has no size to tune
// and lets the collector reclaim fabrics nobody asks for; what stays behind
// per Config is the key and an empty pool.
var fabrics = struct {
	sync.Mutex
	m map[Config]*sync.Pool
}{m: map[Config]*sync.Pool{}}

// fabricPool returns cfg's pool, made on first use when create is set.
func fabricPool(cfg Config, create bool) *sync.Pool {
	fabrics.Lock()
	defer fabrics.Unlock()
	fp := fabrics.m[cfg]
	if fp == nil && create {
		fp = new(sync.Pool)
		fabrics.m[cfg] = fp
	}
	return fp
}

// pristine is the mutable state of a just-built fabric, captured through
// the snapshot layer's CaptureState and kept once per kind of component
// rather than once per component (a whole Snapshot of a 16x16 is ≈1 MB):
// every NIC, every link and every sink of a network is built alike and
// starts in the same State, and routers differ only in which of their
// output ports are wired. RestoreState copies out of the State it is given,
// so one value serves every component of its kind.
type pristine struct {
	routers map[uint8]router.State // by Router.ConnectedOutputs
	link    link.State
	nic     nic.State
	sink    nic.EjectorState
}

// capturePristine records the state of nw, which New has just returned.
func (nw *Network) capturePristine() (*pristine, error) {
	p := &pristine{routers: map[uint8]router.State{}, link: nw.links[0].CaptureState()}
	for _, r := range nw.routers {
		if _, ok := p.routers[r.ConnectedOutputs()]; !ok {
			p.routers[r.ConnectedOutputs()] = r.CaptureState()
		}
	}
	var err error
	if p.nic, err = nw.nics[0].CaptureState(); err != nil {
		return nil, err
	}
	if len(nw.sinks) > 0 {
		if p.sink, err = nw.sinks[0].ej.CaptureState(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// reuse counts what Acquire and Release did, process-wide.
var reuse struct {
	built, reused, dropped atomic.Uint64
}

// ReuseCounts is a reading of the process-wide reuse counters.
type ReuseCounts struct {
	// Built counts the networks Acquire had to construct, Reused the ones
	// it took from a pool; their sum is the number of successful Acquires.
	Built, Reused uint64
	// Dropped counts the networks Release closed instead of pooling.
	Dropped uint64
}

// ReuseStats reads the reuse counters. Networks built by calling New
// directly appear in none of them.
func ReuseStats() ReuseCounts {
	return ReuseCounts{
		Built:   reuse.built.Load(),
		Reused:  reuse.reused.Load(),
		Dropped: reuse.dropped.Load(),
	}
}

// Acquire returns a network of configuration cfg for one run: a released
// one when a network of the same Config value is idle, else one built by
// New. The two are indistinguishable to the run — same schedule, same
// results, same snapshot bytes — except that a reused network's flit pool
// is warm, so FlitPool().Misses() can read lower. Pass the network to
// Release when the run is over, in place of Close.
func Acquire(cfg Config) (*Network, error) {
	fp := fabricPool(cfg, false)
	if fp != nil {
		if nw, _ := fp.Get().(*Network); nw != nil {
			reuse.reused.Add(1)
			nw.home = fp
			return nw, nil
		}
	}
	nw, err := New(cfg)
	if err != nil {
		return nil, err
	}
	reuse.built.Add(1)
	if nw.engine.Sharded() || nw.tele != nil || nw.injector != nil {
		// Never pooled (see Release); home stays nil.
		return nw, nil
	}
	if nw.pristine, err = nw.capturePristine(); err != nil {
		return nw, nil // cannot be reset, so not pooled either
	}
	if fp == nil {
		fp = fabricPool(cfg, true)
	}
	nw.home = fp
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
// in flight, a network built by New — is closed and left to the collector,
// which is what happened to every network before reuse existed.
func (nw *Network) Release() {
	fp := nw.home
	nw.home = nil // a second Release must not park the network twice
	if fp != nil && nw.engine.Err() == nil && !nw.engine.Interrupted() &&
		nw.Quiescent() && nw.pool.Live() == 0 && nw.reset() == nil {
		fp.Put(nw)
		return
	}
	reuse.dropped.Add(1)
	nw.Close()
}

// reset returns a drained sequential network to the state New left it in.
// The mutable fabric state — everything a Snapshot carries — goes back
// through the same per-component RestoreState a checkpoint resume uses,
// fed the pristine States, so the list of what that state is stays in the
// snapshot layer. What snapshots leave to the caller is put back here: the
// engine (whatever was registered after the build is dropped and its
// handles disarmed; clock, evaluation counters, burst, watchdog, interrupt
// flag and modes as built), the per-NIC δ overrides workload layers apply,
// the receive callbacks on NICs and sinks, and the flit pool's counters.
// The pool's freelist and the grown ring buffers stay: they hold capacity,
// not state.
func (nw *Network) reset() error {
	nw.engine.Truncate(nw.built)
	nw.engine.Reset()
	nw.setEngineModes()
	nw.pool.ResetCounts()

	p, numNodes := nw.pristine, nw.topo.NumNodes()
	clear(nw.pidSeq)
	for i, r := range nw.routers {
		n := nw.nics[i]
		if err := r.RestoreState(p.routers[r.ConnectedOutputs()], nw.pool, numNodes,
			n.GatherAckFunc(), n.ReduceAckFunc()); err != nil {
			return err
		}
	}
	for _, l := range nw.links {
		l.RestoreState(p.link, nw.pool, numNodes)
	}
	for _, n := range nw.nics {
		if err := n.RestoreState(p.nic, numNodes); err != nil {
			return err
		}
		n.SetDelta(nw.nicCfg.Delta)
		n.SetReduceDelta(nw.nicCfg.ReduceDelta)
		n.OnReceive(nil)
	}
	for _, s := range nw.sinks {
		if err := s.ej.RestoreState(p.sink, numNodes); err != nil {
			return err
		}
		s.OnReceive(nil)
	}
	return nil
}
