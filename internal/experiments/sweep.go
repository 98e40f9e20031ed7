package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
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

// comparePoint is one (mesh, layer) cell of a figure or table sweep.
type comparePoint struct {
	mesh  int
	layer cnn.LayerConfig
	// mutate, when non-nil, adjusts the cell's systolic configuration.
	mutate func(*systolic.Config)
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

// compareSweep runs core.CompareLayer for every point on the worker pool,
// consulting the result cache (when configured) before dispatching a cell.
func compareSweep(points []comparePoint, opts Options) ([]*core.Comparison, error) {
	return Sweep(opts.ctx(), opts.Workers, points,
		func(_ context.Context, _ int, p comparePoint) (*core.Comparison, error) {
			o := opts.core()
			o.MutateSystolic = p.mutate
			cmp, err := cachedCompareLayer(opts.Cache, p.mesh, p.mesh, p.layer, o)
			if err != nil {
				return nil, fmt.Errorf("%s %dx%d: %w", p.layer.Name, p.mesh, p.mesh, err)
			}
			return cmp, nil
		})
}
