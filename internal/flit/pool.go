package flit

import (
	"fmt"
	"sync"

	"gathernoc/internal/ring"
)

// Pool is a freelist of Flit objects that removes per-flit heap
// allocation from the simulator's steady state. One pool serves one
// network (the sequential engine is single-threaded, so no locking is
// needed); parallel sweeps give every network its own pool, and a sharded
// engine gives every shard its own lock-free view of the network's pool
// (see NewView).
//
// Ownership discipline (DESIGN.md §6): whoever creates a flit acquires it
// (the NIC through PacketizeInto, a router forking a multicast copy), and
// the component that removes the flit from the fabric releases it (the
// ejector after reassembly, a forking router retiring the original). A
// released flit is reset — all fields zeroed — but keeps its Payloads
// backing array, so gather payload slots are reused across packets too.
//
// A nil *Pool is valid and degrades to the garbage collector: Acquire
// returns a fresh Flit and Release is a no-op. Standalone component unit
// tests rely on this.
type Pool struct {
	free ring.FreeList[*Flit]
	// block is the rest of the array the latest miss allocated: a miss
	// takes its flit from here, and allocates a block only once it is
	// spent (newBlock).
	block []Flit

	// debug, when enabled, tracks every outstanding flit so tests can
	// catch double releases, releases of foreign flits, and leaks. The
	// checker state lives on the root pool and is shared by all views,
	// guarded by mu — a flit acquired in one shard and released in
	// another (packets routinely cross shard boundaries) must stay a
	// single entry in one live set.
	debug bool
	mu    sync.Mutex
	live  map[*Flit]bool

	// parent is the root pool for a shard view, nil on a root. views
	// lists a root's shard views for Live/Misses aggregation.
	parent *Pool
	views  []*Pool

	acquired uint64
	released uint64
	misses   uint64 // Acquires that had to heap-allocate
	drops    uint64 // Releases via ReleaseDropped (fault injection)
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewView returns a shard-local view of the pool: an independent freelist
// with its own (unsynchronized) counters, sharing the root's debug
// checker. Each view must be used by at most one goroutine per engine
// phase; flits may freely migrate between views — a flit acquired from
// one view and released into another simply changes freelists, which the
// root's aggregate accounting absorbs.
func (p *Pool) NewView() *Pool {
	root := p.root()
	v := &Pool{parent: root}
	root.views = append(root.views, v)
	return v
}

func (p *Pool) root() *Pool {
	if p.parent != nil {
		return p.parent
	}
	return p
}

// SetDebug toggles the ownership checker. With it on, Release panics on a
// flit that is not currently outstanding (double free, or a flit the pool
// never issued), and Live reports the outstanding count so drained
// networks can assert leak freedom. Enable before the first Acquire.
func (p *Pool) SetDebug(on bool) {
	p.debug = on
	if on && p.live == nil {
		p.live = make(map[*Flit]bool)
	}
}

// Acquire returns a zeroed flit, reusing a released one when available. A
// nil pool heap-allocates.
func (p *Pool) Acquire() *Flit {
	if p == nil {
		return &Flit{}
	}
	p.acquired++
	f, ok := p.free.Get()
	if !ok {
		if len(p.block) == 0 {
			p.block = make([]Flit, p.newBlock())
		}
		f = &p.block[0]
		p.block = p.block[1:]
		p.misses++
	}
	if root := p.root(); root.debug {
		root.mu.Lock()
		root.live[f] = true
		root.mu.Unlock()
	}
	return f
}

// Flit block sizes: a pool's blocks start at blockMin flits and double with
// its misses up to blockMax, so a pool that stays small allocates little
// and a large fabric's pool reaches its high-water mark in a few dozen
// allocations rather than one per flit.
const (
	blockMin = 16
	blockMax = 1024
)

// newBlock returns the size of the pool's next flit block: as many flits as
// it has missed so far, within [blockMin, blockMax].
func (p *Pool) newBlock() int { return min(max(int(p.misses), blockMin), blockMax) }

// Release resets f and returns it to the freelist. The flit must not be
// used after release. A nil pool ignores the call (the GC reclaims f).
func (p *Pool) Release(f *Flit) {
	if p == nil {
		return
	}
	if root := p.root(); root.debug {
		root.mu.Lock()
		ok := root.live[f]
		delete(root.live, f)
		root.mu.Unlock()
		if !ok {
			panic(fmt.Sprintf("flit: double release or foreign flit %p (%s)", f, f))
		}
	}
	p.released++
	payloads := f.Payloads[:0]
	*f = Flit{Payloads: payloads}
	p.free.Put(f)
}

// ReleaseDropped releases a flit that fault injection removed from the
// fabric (dropped at a link, vanished in an outage window) and accounts
// it separately: the flit returns to the freelist like any other release
// — the leak checker must stay clean with faults enabled — while the
// Drops counter lets conservation tests reconcile "flits injected" against
// "flits delivered plus flits faulted away".
func (p *Pool) ReleaseDropped(f *Flit) {
	if p == nil {
		return
	}
	p.drops++
	p.Release(f)
}

// ResetCounts zeroes the acquire, release, miss and drop counts of the pool
// and its views and keeps the freelists, so a network that is reset for
// reuse counts its next run from zero (with fewer misses than a new pool:
// the freelist is warm). Call with no flit outstanding.
func (p *Pool) ResetCounts() {
	p.acquired, p.released, p.misses, p.drops = 0, 0, 0, 0
	for _, v := range p.views {
		v.ResetCounts()
	}
}

// Drops returns how many flits were released through ReleaseDropped. On a
// root it aggregates the shard views.
func (p *Pool) Drops() uint64 {
	if p == nil {
		return 0
	}
	n := p.drops
	for _, v := range p.views {
		n += v.drops
	}
	return n
}

// Live returns the number of outstanding flits (acquired, not yet
// released), views included when called on a root. Without debug mode it
// is derived from the acquire/release counters, which is equivalent as
// long as no foreign flits are released; a single view's balance can go
// negative (flits migrate between views), so leak checks call Live on the
// root.
func (p *Pool) Live() int {
	if p == nil {
		return 0
	}
	if p.debug {
		p.mu.Lock()
		n := len(p.live)
		p.mu.Unlock()
		return n
	}
	n := p.Balance()
	for _, v := range p.views {
		n += v.Balance()
	}
	return int(n)
}

// Balance returns this pool's own acquires minus releases, views excluded:
// the part of Live that one view's goroutine can read without touching
// another view's counters. It goes negative on a view that releases flits
// other views acquired; the balances of a root and all its views sum to
// Live.
func (p *Pool) Balance() int64 {
	if p == nil {
		return 0
	}
	return int64(p.acquired) - int64(p.released)
}

// Misses returns how many Acquires fell through to the heap — the pool's
// high-water mark, and zero growth once the steady state is reached. On a
// root it aggregates the shard views.
func (p *Pool) Misses() uint64 {
	if p == nil {
		return 0
	}
	n := p.misses
	for _, v := range p.views {
		n += v.misses
	}
	return n
}
