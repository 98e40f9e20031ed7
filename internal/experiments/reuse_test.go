package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gathernoc/internal/noc"
)

// raceBuild reports whether the binary runs under the race detector, where
// sync.Pool drops a quarter of what it is given and a released network is
// therefore rebuilt now and then.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSweepBuildsOneFabricPerWorkerAndConfig pins what reuse is for.
// Table II and Fig. 7 are 15 comparison cells, 30 simulations, on two
// configurations (the 8x8 and the 16x16 Table I mesh). A worker holds one
// network at a time and releases it before it takes the next cell, so the
// sweep builds at most one network per worker and configuration, however
// many cells it has, and drops none.
func TestSweepBuildsOneFabricPerWorkerAndConfig(t *testing.T) {
	const workers, configs, runs = 3, 2, 30
	// Two things make sync.Pool miss while a network is idle: a collection
	// empties it, and each processor keeps one item where the others
	// cannot take it. With the collector off and one processor for the
	// length of the sweep the bound is exact and not merely likely; the
	// workers still interleave.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

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
	if raceBuild() {
		if reused == 0 {
			t.Error("no network was reused")
		}
		return
	}
	if built > configs*workers {
		t.Errorf("built %d networks, want at most %d configurations x %d workers", built, configs, workers)
	}
}

// TestMultiJobReleasesItsFabric: MultiJob takes its network from Acquire
// like every other cell, so it must hand it back. With telemetry off the
// fabric is poolable: the first of two calls builds it, the second runs on
// the same one, and neither drops it.
func TestMultiJobReleasesItsFabric(t *testing.T) {
	// Empty the pools of what earlier tests parked (two collections clear a
	// sync.Pool and its victim cache), then keep them from missing, as in
	// TestSweepBuildsOneFabricPerWorkerAndConfig.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

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
	if raceBuild() {
		return
	}
	if built != 1 || reused != 1 {
		t.Errorf("built %d and reused %d networks, want the second run on the first run's fabric", built, reused)
	}
}
