package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/round"
	"gathernoc/internal/systolic"
)

// Sweep evaluates fn over every item on a bounded worker pool and returns
// the results in input order: results[i] is fn's value for items[i],
// whatever the worker count or scheduling. Each fn call must be
// self-contained (every simulation point constructs its own Network), which
// makes the per-point runs as deterministic in parallel as they are
// serially.
//
// workers <= 0 selects runtime.GOMAXPROCS(0); the pool never exceeds
// len(items). fn receives the item's index alongside the item so callers
// can label results without closing over shared state.
//
// The sweep fails fast: the first error cancels the context passed to the
// remaining fn calls, and no new item starts once cancellation is
// observed (skipped items keep zero results). When several items fail
// before cancellation lands, the error with the smallest item index is
// returned. Cancelling ctx stops the sweep the same way, surfacing ctx's
// error if no fn error preceded it. Items already inside fn when the
// context is cancelled run to completion unless fn itself honors ctx —
// simulation points here do not, so cancellation latency is one point.
//
// Workers claim the next index from a shared counter, one atomic add and
// no hand-off, and the caller is one of them: workers == 1 runs inline.
func Sweep[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	work := func() {
		defer wg.Done()
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(items) {
				return
			}
			r, err := fn(ctx, i, items[i])
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			results[i] = r
		}
	}
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, ctx.Err()
}

// comparePoint is one (mesh, layer) cell of a figure, table or ablation
// sweep.
type comparePoint struct {
	mesh  int
	layer cnn.LayerConfig
	// mutate, when non-nil, adjusts the cell's run options.
	mutate func(*core.Options)
}

// comparePoints enumerates the mesh-major point grid the figures iterate.
func comparePoints(layers []cnn.LayerConfig, meshes []int) []comparePoint {
	points := make([]comparePoint, 0, len(meshes)*len(layers))
	for _, mesh := range meshes {
		for _, layer := range layers {
			points = append(points, comparePoint{mesh: mesh, layer: layer})
		}
	}
	return points
}

// options are the point's run options: the defaults, each run covering
// its whole layer, adjusted by mutate.
func (p comparePoint) options() core.Options {
	if p.mutate == nil {
		return core.Options{}
	}
	// Declared here, the copy mutate escapes with is allocated only for
	// points that have one.
	var o core.Options
	p.mutate(&o)
	return o
}

// lookup returns the point's comparison from opts.Cache, nil on a miss.
// Unkeyable inputs are never wrong results, only uncacheable.
func (p comparePoint) lookup(opts Options) *core.Comparison {
	o := p.options()
	key, err := core.ComparisonKey(p.mesh, p.mesh, p.layer, o)
	if err != nil {
		return nil
	}
	cmp, _ := opts.Cache.lookup(key, func(ru, g *systolic.Result) *core.Comparison {
		return core.Compare(p.mesh, p.mesh, p.layer, o, ru, g)
	})
	return cmp
}

// compareCell is a point's comparison in the making: its run options, its
// cache key ("" when it has none), the results of its two runs, RU then
// gather, how many of its sweep items are still running, and where the
// comparison goes.
type compareCell struct {
	comparePoint
	opts    core.Options
	key     string
	runs    [2]*systolic.Result
	pending atomic.Int32
	out     **core.Comparison
}

// modes are the collection modes of a cell's two runs.
var modes = [2]systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode}

// compareRun is one item of a sweep: the runs of cell in modes lo to hi.
type compareRun struct {
	cell   *compareCell
	lo, hi int
}

// compareSweep returns the RU-vs-gather comparison of every point, in
// input order. With a result cache it looks every cell up first, on the
// worker pool, and simulates only the cells it misses. Each of those is two
// items on the pool, its RU run and its gather run, and all of them follow
// one trajectory table that lives as long as the sweep
// (round.Trajectories): the first runs of distinct keys record at once, a
// run that reaches a key another run is recording waits for it, and a run
// whose rounds collect as a recorded one did is replayed from it instead of
// simulated. A cell with run options of its own (an ablation's, a
// dataflow's) is one item instead, both runs in turn on one worker: when
// those options change the fabric's configuration no other cell's fabric
// fits it, and its second run takes the one its first released
// (noc.Acquire) where two workers would build one each.
// Whichever worker finishes a cell's last item derives the comparison
// (core.Compare) and stores it in the cache.
//
// A comparison the cache serves is shared with every later lookup of its
// key in the same Cache, possibly on other sweep workers, so callers treat
// what compareSweep returns as read-only: they read fields and a sample's
// statistics, which leave the sample as it is, and never Observe into it.
func compareSweep(points []comparePoint, opts Options) ([]*core.Comparison, error) {
	ctx := opts.ctx()
	var cmps []*core.Comparison
	if opts.Cache == nil {
		cmps = make([]*core.Comparison, len(points))
	} else {
		var err error
		cmps, err = Sweep(ctx, opts.Workers, points,
			func(_ context.Context, _ int, p comparePoint) (*core.Comparison, error) {
				return p.lookup(opts), nil
			})
		if err != nil {
			return nil, err
		}
	}
	misses := 0
	for _, cmp := range cmps {
		if cmp == nil {
			misses++
		}
	}
	if misses == 0 {
		return cmps, ctx.Err()
	}
	cells := make([]compareCell, misses)
	runs := make([]compareRun, 0, 2*misses)
	n := 0
	for i, p := range points {
		if cmps[i] != nil {
			continue
		}
		c := &cells[n]
		n++
		c.comparePoint, c.opts, c.out = p, p.options(), &cmps[i]
		if opts.Cache != nil {
			c.key, _ = core.ComparisonKey(p.mesh, p.mesh, p.layer, c.opts)
		}
		if p.mutate != nil {
			c.pending.Store(1)
			runs = append(runs, compareRun{c, 0, 1})
		} else {
			c.pending.Store(2)
			runs = append(runs, compareRun{c, 0, 0}, compareRun{c, 1, 1})
		}
	}
	var t round.Trajectories
	_, err := Sweep(ctx, opts.Workers, runs,
		func(_ context.Context, _ int, r compareRun) (struct{}, error) {
			return struct{}{}, r.run(&t, opts.Cache)
		})
	if err != nil {
		return nil, err
	}
	return cmps, nil
}

// run simulates the item's runs, following the sweep's table t; the
// cell's last item to finish derives the comparison and stores it in cache
// under the cell's key. A cell with run options of its own follows no
// table: it is the only cell of its key in its sweep, and could only
// record.
func (r compareRun) run(t *round.Trajectories, cache *Cache) error {
	c := r.cell
	if c.mutate != nil {
		t = nil
	}
	for mode := r.lo; mode <= r.hi; mode++ {
		res, err := core.Simulate(t, c.mesh, c.mesh, c.layer, modes[mode], c.opts)
		if err != nil {
			return fmt.Errorf("%s %dx%d: %w", c.layer.Name, c.mesh, c.mesh, err)
		}
		c.runs[mode] = res
	}
	if c.pending.Add(-1) > 0 {
		return nil
	}
	cmp := core.Compare(c.mesh, c.mesh, c.layer, c.opts, c.runs[0], c.runs[1])
	*c.out = cmp
	if c.key == "" {
		return nil
	}
	return cache.store(c.key, cmp)
}
