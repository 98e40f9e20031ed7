package experiments

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/round"
)

func TestSweepPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{1, 2, 7, 64, 0} {
		got, err := Sweep(context.Background(), workers, items,
			func(_ context.Context, i int, item int) (string, error) {
				return fmt.Sprintf("%d:%d", i, item), nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range items {
			want := fmt.Sprintf("%d:%d", i, items[i])
			if got[i] != want {
				t.Fatalf("workers=%d: got[%d] = %q, want %q", workers, i, got[i], want)
			}
		}
	}
}

func TestSweepEmptyItems(t *testing.T) {
	got, err := Sweep(context.Background(), 4, nil,
		func(_ context.Context, i int, item int) (int, error) { return item, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("Sweep(nil items) = (%v, %v), want empty, nil", got, err)
	}
}

func TestSweepReturnsSmallestIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Serial execution reaches item 2 first; the sweep must surface its
	// error (the smallest failing index) rather than a later one.
	_, err := Sweep(context.Background(), 1, items,
		func(ctx context.Context, i int, item int) (int, error) {
			if i == 5 || i == 2 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return item, nil
		})
	if err == nil || err.Error() != "boom 2" {
		t.Fatalf("err = %v, want boom 2", err)
	}
}

func TestSweepFailFastSkipsRemainingItems(t *testing.T) {
	var ran atomic.Int64
	items := make([]int, 1000)
	_, err := Sweep(context.Background(), 2, items,
		func(ctx context.Context, i int, item int) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, errors.New("early failure")
			}
			return item, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n >= int64(len(items)) {
		t.Errorf("ran %d items, expected fail-fast to skip some", n)
	}
}

func TestSweepHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Sweep(ctx, 4, []int{1, 2, 3},
		func(ctx context.Context, i int, item int) (int, error) {
			return item, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 3 {
		t.Fatalf("results length = %d, want 3 (zero-valued)", len(res))
	}
}

// TestSweepSerialRunsInline: at one worker the calling goroutine runs
// every item itself, so a serial sweep starts no goroutine. Only a rise
// counts: an earlier test's worker may still be exiting after its Sweep
// returned.
func TestSweepSerialRunsInline(t *testing.T) {
	entry := runtime.NumGoroutine()
	_, err := Sweep(context.Background(), 1, make([]int, 8),
		func(_ context.Context, i int, _ int) (int, error) {
			if n := runtime.NumGoroutine(); n > entry {
				return 0, fmt.Errorf("item %d: %d goroutines inside fn, %d at entry", i, n, entry)
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepBoundsInFlight: however the workers race for the counter, no
// more than the worker count of fn calls ever run at once.
func TestSweepBoundsInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		var inFlight, peak atomic.Int64
		_, err := Sweep(context.Background(), workers, make([]int, 64),
			func(_ context.Context, _ int, _ int) (int, error) {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(50 * time.Microsecond)
				inFlight.Add(-1)
				return 0, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(workers) {
			t.Errorf("workers=%d: %d fn calls in flight at once", workers, p)
		}
	}
}

var sweepSink [][sha256.Size]byte

// BenchmarkSweepDispatch sweeps 21 items of about 10 µs of CPU each (a
// sha256 of 12 KiB on a core without SHA extensions), the shape of a warm
// figure sweep, on two workers; ns/item at two workers against the
// one-worker (inline) figure is what dispatch adds or saves.
func BenchmarkSweepDispatch(b *testing.B) {
	items := make([][]byte, 21)
	for i := range items {
		items[i] = make([]byte, 12<<10)
	}
	hash := func(_ context.Context, _ int, item []byte) ([sha256.Size]byte, error) {
		return sha256.Sum256(item), nil
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sums, err := Sweep(context.Background(), workers, items, hash)
				if err != nil {
					b.Fatal(err)
				}
				sweepSink = sums
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(items)), "ns/item")
		})
	}
}

// sweptArtifacts are the simulated artifacts that fan their cells out on
// Sweep, each returning its rows as one value.
var sweptArtifacts = []struct {
	name string
	run  func(Options) (any, error)
}{
	{"Table2", rowsOf(Table2)},
	{"FullAlexNet", rowsOf(func(o Options) (*ModelResult, error) { return FullAlexNet(8, o) })},
	{"FullVGG16", rowsOf(func(o Options) (*ModelResult, error) { return FullVGG16(8, o) })},
	{"Dataflows", rowsOf(Dataflows)},
	{"MixedTraffic", rowsOf(MixedTraffic)},
	{"FaultSweep", rowsOf(FaultSweep)},
}

func rowsOf[R any](run func(Options) (R, error)) func(Options) (any, error) {
	return func(o Options) (any, error) {
		r, err := run(o)
		return r, err
	}
}

// TestTable2ParallelMatchesSerial proves Table II and every other swept
// artifact return identical results whatever the worker count: every
// simulation point owns its network, and the aggregates are taken in input
// order after the sweep, so parallelism cannot perturb the simulated values.
func TestTable2ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, a := range sweptArtifacts {
		serial, err := a.run(Options{Rounds: 1, Workers: 1})
		if err != nil {
			t.Errorf("%s: serial: %v", a.name, err)
			continue
		}
		parallel, err := a.run(Options{Rounds: 1, Workers: 4})
		if err != nil {
			t.Errorf("%s: parallel: %v", a.name, err)
			continue
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: parallel sweep diverged:\nserial   %+v\nparallel %+v", a.name, serial, parallel)
		}
	}
}

// TestArtifactsHonorCancellation: with Options.Ctx already cancelled,
// every artifact returns the context's error before its first cell, so
// none of them builds a fabric.
func TestArtifactsHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range sweptArtifacts {
		before := noc.ReuseStats()
		_, err := a.run(Options{Rounds: 1, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", a.name, err)
		}
		if after := noc.ReuseStats(); after.Built != before.Built || after.Reused != before.Reused {
			t.Errorf("%s: took %d built and %d reused fabrics after cancellation",
				a.name, after.Built-before.Built, after.Reused-before.Reused)
		}
	}
}

// TestTrajectoryTable holds compareSweep's trajectory table to its hit rate
// and to the runs it stands for. Over Fig. 7's grid at Rounds 3 on one
// worker, one run per mesh and mode simulates and records, and every other
// run replays: an encoding change that silently stops the replays fails
// here. On two workers, which record into and replay from one table at
// once, the sweep must return the one-worker sweep's Records, and both
// must equal core.CompareLayer's, cell by cell, without a table.
func TestTrajectoryTable(t *testing.T) {
	points := comparePoints(cnn.AlexNetConvLayers(), []int{8, 16})
	before := round.Replayed()
	one, err := compareSweep(points, Options{Rounds: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := round.Replayed()-before, uint64(2*len(points)-4); got != want {
		t.Errorf("one worker replayed %d of %d runs, want %d: all but the first of each mesh and mode", got, 2*len(points), want)
	}
	two, err := compareSweep(points, Options{Rounds: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		want, err := core.CompareLayer(p.mesh, p.mesh, p.layer, core.Options{Rounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*core.Comparison{one[i], two[i]} {
			if !reflect.DeepEqual(got.RU.Result.Record, want.RU.Result.Record) ||
				!reflect.DeepEqual(got.Gather.Result.Record, want.Gather.Result.Record) {
				t.Errorf("%s %dx%d: the sweep's records differ from CompareLayer's:\n%+v\n%+v",
					p.layer.Name, p.mesh, p.mesh, got.Gather.Result.Record, want.Gather.Result.Record)
			}
		}
	}
}
