package experiments

import (
	"reflect"
	"sync"
	"testing"

	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/systolic"
)

// TestSweepBuildsOneFabricPerWorkerAndConfig pins what reuse is for.
// Table II and Fig. 7 are 15 comparison cells, 30 simulations, on two
// configurations (the 8x8 and the 16x16 Table I mesh). A worker holds one
// network at a time and releases it before it takes the next cell, so the
// sweep builds at most one network per worker and configuration, however
// many cells it has, and drops none.
func TestSweepBuildsOneFabricPerWorkerAndConfig(t *testing.T) {
	// The free list parks every release, whatever the collector does
	// meanwhile and however few processors the workers share, so the bound
	// is exact.
	const configs, runs, workers = 2, 30, 3

	opts := Options{Rounds: 1, Workers: workers}
	before := noc.ReuseStats()
	if _, err := Table2(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig7(opts); err != nil {
		t.Fatal(err)
	}
	after := noc.ReuseStats()
	built, reused := after.Built-before.Built, after.Reused-before.Reused
	t.Logf("built %d, reused %d, dropped %d", built, reused, after.Dropped-before.Dropped)
	if built+reused != runs {
		t.Errorf("built %d + reused %d networks for %d simulations", built, reused, runs)
	}
	if after.Dropped != before.Dropped {
		t.Errorf("dropped %d networks that finished cleanly", after.Dropped-before.Dropped)
	}
	if built > uint64(configs*workers) {
		t.Errorf("built %d networks, want at most %d configurations x %d workers", built, configs, workers)
	}
}

// TestMultiJobReleasesItsFabric: MultiJob takes its network from Acquire
// like every other cell, so it must hand it back. The fabric carries no
// telemetry, so it is poolable: the second of two calls runs on the one the first
// released (the first builds it, unless an earlier test parked one of the
// same configuration), and neither drops it.
func TestMultiJobReleasesItsFabric(t *testing.T) {
	before := noc.ReuseStats()
	for i := 0; i < 2; i++ {
		if _, err := MultiJob(Options{Rounds: 1, Jobs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	after := noc.ReuseStats()
	built, reused := after.Built-before.Built, after.Reused-before.Reused
	t.Logf("built %d, reused %d, dropped %d", built, reused, after.Dropped-before.Dropped)
	if built+reused != 2 {
		t.Errorf("built %d + reused %d networks for 2 runs", built, reused)
	}
	if after.Dropped != before.Dropped {
		t.Errorf("dropped %d networks that finished cleanly", after.Dropped-before.Dropped)
	}
	if built > 1 || reused == 0 {
		t.Errorf("built %d and reused %d networks, want the second run on the first run's fabric", built, reused)
	}
}

// TestOwnOptionsCellRunsOnOneFabric: an ablation cell's network
// configuration is its own, so its RU and gather runs are one sweep item
// and the second runs on the fabric the first released. The sinkcost
// ablation's four cells then build at most one fabric each, plus one for a
// cell whose configuration happens to equal the default, on any worker
// count; dispatched as two items, two workers build eight.
func TestOwnOptionsCellRunsOnOneFabric(t *testing.T) {
	before := noc.ReuseStats()
	if _, err := AblationSinkCost(Options{Rounds: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	after := noc.ReuseStats()
	built, reused := after.Built-before.Built, after.Reused-before.Reused
	t.Logf("built %d, reused %d, dropped %d", built, reused, after.Dropped-before.Dropped)
	if built+reused != 8 {
		t.Errorf("built %d + reused %d networks for 8 simulations", built, reused)
	}
	if built > 5 {
		t.Errorf("built %d networks for four cells of their own configuration, want at most 5", built)
	}
}

// TestSharedLinePlans: a fabric builds its row and column plans once and
// every controller that runs on it shares them (noc.Network.RowLines), the
// δ ablation's flat-δ runs included: at the default δ they run on the
// Table I 8x8 fabrics Table II's runs take from the pool. With both sweeps
// on two workers at once, Table II reads as it does alone; and a fabric
// that a flat-δ run and a default one ran on holds plans equal to a fresh
// build's.
func TestSharedLinePlans(t *testing.T) {
	want, err := Table2(Options{Rounds: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := AblationDelta(Options{Rounds: 1, Workers: 2}); err != nil {
			t.Error(err)
		}
	}()
	got, err := Table2(Options{Rounds: 1, Workers: 2})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Table II beside the δ ablation:\n%+v\nalone:\n%+v", got, want)
	}

	// Alone, a flat-δ run and a default one on the 8x8 fabric, each run
	// releasing it to the next.
	for _, flat := range []bool{true, false} {
		opts := core.Options{Rounds: 1, MutateSystolic: func(s *systolic.Config) { s.FlatDelta = flat }}
		if _, err := core.RunLayer(8, 8, ablationLayer(), systolic.GatherMode, opts); err != nil {
			t.Fatal(err)
		}
	}
	cfg := noc.DefaultConfig(8, 8)
	before := noc.ReuseStats()
	reused, err := noc.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reused.Release()
	if noc.ReuseStats().Reused != before.Reused+1 {
		t.Fatal("no 8x8 fabric was left in the pool")
	}
	fresh, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, toSink := range []bool{false, true} {
		for i := 0; i < 8; i++ {
			if a, b := reused.RowLine(i, toSink), fresh.RowLine(i, toSink); !reflect.DeepEqual(a, b) {
				t.Errorf("row %d (toSink %v) on the reused fabric: %+v, fresh: %+v", i, toSink, a, b)
			}
			if a, b := reused.ColumnLine(i, toSink), fresh.ColumnLine(i, toSink); !reflect.DeepEqual(a, b) {
				t.Errorf("column %d (toSink %v) on the reused fabric: %+v, fresh: %+v", i, toSink, a, b)
			}
		}
	}
}
