package noc

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"gathernoc/internal/nic"
	"gathernoc/internal/topology"
)

// The equivalence of a released network and a fresh build is the root
// package's reuseequiv suite; these are the corners of the API itself.

func TestAcquireRejectsInvalidConfigWithoutAPool(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	cfg.LinkLatency = 0
	before := ReuseStats()
	if _, err := Acquire(cfg); err == nil {
		t.Fatal("Acquire accepted LinkLatency 0")
	}
	fabrics.Lock()
	listed := fabrics.idle[cfg] != nil
	fabrics.Unlock()
	if listed {
		t.Error("a failed build left a free list behind for its Config")
	}
	if after := ReuseStats(); after != before {
		t.Errorf("a failed build was counted: %+v -> %+v", before, after)
	}
}

func TestReleaseTwiceParksOnce(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Delta = 77 // a Config no other test pools
	nw, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := ReuseStats()
	nw.Release()
	nw.Release()
	after := ReuseStats()
	if after.Dropped != before.Dropped+1 {
		t.Fatalf("two Releases of one network dropped %d, want 1 (the second)", after.Dropped-before.Dropped)
	}
	a, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("one network was handed out twice")
	}
	a.Release()
	b.Release()
}

// TestFreeListBounds: a Config parks every network released to it, however
// few processors there are, and hands each out again, so a list holds no
// more networks than were leased at once, and keeps its list once empty;
// only maxIdleConfigs Configs keep a list at all, and past them an empty
// list is let go with its key first, then the one released to longest ago;
// and a list nobody has released to for idleFor goes the same way.
func TestFreeListBounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	config := func(delta int64) Config {
		cfg := DefaultConfig(2, 2)
		cfg.Delta = delta // Configs no other test pools
		return cfg
	}
	hold := func(cfg Config, n int) []*Network {
		nws := make([]*Network, n)
		for i := range nws {
			var err error
			if nws[i], err = Acquire(cfg); err != nil {
				t.Fatal(err)
			}
		}
		return nws
	}
	listed := func(cfg Config) bool {
		fabrics.Lock()
		defer fabrics.Unlock()
		return fabrics.idle[cfg] != nil
	}

	first := config(900)
	before := ReuseStats()
	for _, nw := range hold(first, 3) {
		nw.Release()
	}
	after := ReuseStats()
	if after.Built != before.Built+3 || after.Dropped != before.Dropped {
		t.Fatalf("three networks of one Config released on one processor: %+v -> %+v, want three built and none dropped", before, after)
	}
	again := hold(first, 3)
	if got := ReuseStats(); got.Reused != after.Reused+3 || got.Built != after.Built {
		t.Fatalf("the three parked networks were not all handed out again: %+v -> %+v", after, got)
	}
	fabrics.Lock()
	kept := fabrics.idle[first]
	if kept != nil {
		// The newest list of all, so only its emptiness lets it go first.
		kept.released = time.Now().Add(idleFor)
	}
	fabrics.Unlock()
	if kept == nil || len(kept.nets) != 0 {
		t.Fatal("a Config whose idle networks were all handed out does not keep its empty list")
	}

	// One network each of maxIdleConfigs+1 Configs, released oldest first:
	// the empty list goes first, then the oldest.
	for i := 0; i <= maxIdleConfigs; i++ {
		hold(config(901+int64(i)), 1)[0].Release()
		if listed(first) && !listed(config(901)) {
			t.Errorf("release %d let the oldest full list go before the empty one", i)
		}
	}
	if listed(first) || listed(config(901)) || !listed(config(901+maxIdleConfigs)) {
		t.Errorf("after %d releases to distinct Configs: empty listed %v, oldest listed %v, newest listed %v",
			maxIdleConfigs+1, listed(first), listed(config(901)), listed(config(901+maxIdleConfigs)))
	}
	fabrics.Lock()
	keys := len(fabrics.idle)
	fabrics.Unlock()
	if keys > maxIdleConfigs {
		t.Errorf("%d Configs hold idle networks, want at most %d", keys, maxIdleConfigs)
	}

	// Nothing has been idle for idleFor yet; idleFor from now everything has,
	// but for what is released in between.
	expireIdle(time.Now())
	if !listed(config(901 + maxIdleConfigs)) {
		t.Error("a list released to a moment ago expired")
	}
	later := time.Now().Add(idleFor)
	again[0].Release()
	fabrics.Lock()
	fabrics.idle[first].released = later
	fabrics.Unlock()
	expireIdle(later)
	if listed(config(901+maxIdleConfigs)) || !listed(first) {
		t.Errorf("after idleFor: stale list listed %v, fresh list listed %v", listed(config(901+maxIdleConfigs)), listed(first))
	}
	again[1].Release()
	again[2].Release()
}

func TestReleaseOfANewNetworkClosesIt(t *testing.T) {
	nw := mustNetwork(t, DefaultConfig(4, 4))
	before := ReuseStats()
	nw.Release()
	if after := ReuseStats(); after.Dropped != before.Dropped+1 {
		t.Fatalf("Release of a network built by New: %+v -> %+v, want one drop", before, after)
	}
}

// TestResetMatchesFreshBuildOnEveryShape: the pristine state is kept per
// kind of component (routers by their wired output ports), which is exact
// only if components of a kind really are built alike. Degenerate fabrics
// are where that could break: single rows and columns, a 1x1, torus rings
// that wrap onto themselves, fabrics with and without sinks. After traffic
// and a reset, each must snapshot to the bytes of a fresh build.
func TestResetMatchesFreshBuildOnEveryShape(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {3, 5}}
	var cfgs []Config
	for _, sh := range shapes {
		mesh := DefaultConfig(sh[0], sh[1])
		noSinks := mesh
		noSinks.EastSinks = false
		ina := mesh
		ina.EnableINA = true
		adaptive := noSinks
		adaptive.Routing = "westfirst"
		cfgs = append(cfgs, mesh, noSinks, ina, adaptive, DefaultTorusConfig(sh[0], sh[1]))
	}
	for _, cfg := range cfgs {
		nw, err := Acquire(cfg)
		if err != nil {
			t.Fatalf("%dx%d %s: %v", cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), err)
		}
		nodes := nw.Topology().NumNodes()
		for id := 0; id < nodes; id++ {
			n := nw.NIC(topology.NodeID(id))
			n.SetDelta(99)
			n.OnReceive(func(*nic.ReceivedPacket) {})
			for k := 1; k < nodes; k++ {
				n.SendUnicastN(0, topology.NodeID((id+k)%nodes), 2)
			}
			if cfg.EastSinks {
				n.SendUnicastN(0, nw.RowSinkID(nw.Topology().Coord(topology.NodeID(id)).Row), 2)
			}
		}
		if _, err := nw.RunUntilQuiescent(100_000); err != nil {
			t.Fatalf("%dx%d %s: %v", cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), err)
		}
		if err := nw.reset(); err != nil {
			t.Fatalf("%dx%d %s: reset: %v", cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), err)
		}
		got, want := encodedState(t, nw), encodedState(t, mustNetwork(t, cfg))
		if !bytes.Equal(got, want) {
			t.Errorf("%dx%d %s sinks=%v ina=%v routing=%s: reset network differs from a fresh build",
				cfg.Rows, cfg.Cols, cfg.EffectiveTopology(), cfg.EastSinks, cfg.EnableINA, cfg.EffectiveRouting())
		}
		if cfg.EastSinks {
			if got := fallbackDelay(t, nw, 0); got != cfg.Delta {
				t.Errorf("δ override survived the reset: %d", got)
			}
		}
		nw.Release()
	}
}

func encodedState(t *testing.T, nw *Network) []byte {
	t.Helper()
	s, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOnReceiveReachesEveryEndpoint: Network.OnReceive puts one callback on
// every NIC and every edge sink, so a packet to each reaches it exactly
// once; nil clears them all, and so does the reset a network goes through
// between Release and the next Acquire.
func TestOnReceiveReachesEveryEndpoint(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Delta = 78 // a Config no other test pools
	nw, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[topology.NodeID]int{}
	count := func(p *nic.ReceivedPacket) { got[p.Dst]++ }
	// deliver sends one packet to every NIC, each from the next node, and
	// one to every sink, from its row's west PE, and runs them out.
	deliver := func(nw *Network) {
		t.Helper()
		n := nw.Topology().NumNodes()
		for id := 0; id < n; id++ {
			nw.NIC(topology.NodeID((id+1)%n)).SendUnicastN(0, topology.NodeID(id), 2)
		}
		for row := 0; row < cfg.Rows; row++ {
			nw.NIC(nw.Topology().ID(topology.Coord{Row: row})).SendUnicastN(0, nw.RowSinkID(row), 2)
		}
		if _, err := nw.RunUntilQuiescent(100_000); err != nil {
			t.Fatal(err)
		}
	}

	nw.OnReceive(count)
	deliver(nw)
	if want := nw.Topology().NumNodes() + cfg.Rows; len(got) != want {
		t.Fatalf("%d endpoints reached the callback, want %d", len(got), want)
	}
	for id, k := range got {
		if k != 1 {
			t.Errorf("endpoint %d reached the callback %d times", id, k)
		}
	}

	clear(got)
	nw.OnReceive(nil)
	deliver(nw)
	if len(got) != 0 {
		t.Errorf("after OnReceive(nil), %d endpoints still reached the callback", len(got))
	}

	nw.OnReceive(count)
	nw.Release()
	again, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != nw {
		t.Fatal("the released network was not parked and handed out again")
	}
	deliver(again)
	if len(got) != 0 {
		t.Errorf("after Release and Acquire, %d endpoints still reached the callback", len(got))
	}
}
