package collective

import (
	"errors"
	"testing"

	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// leafSum is the software truth for the built-in operand derivation.
func leafSum(nodes, round int) uint64 {
	var s uint64
	for id := 0; id < nodes; id++ {
		s += reduce.Operand(id, round)
	}
	return s
}

func newNetwork(t *testing.T, cfg noc.Config) *noc.Network {
	t.Helper()
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatalf("noc.New: %v", err)
	}
	t.Cleanup(nw.Close)
	return nw
}

func configs(rows, cols int) map[string]noc.Config {
	return map[string]noc.Config{
		"mesh":  noc.DefaultConfig(rows, cols),
		"torus": noc.DefaultTorusConfig(rows, cols),
	}
}

// TestTreePlanShape checks the structural invariants of the two-level
// tree on both topologies: every PE in exactly one row line, row targets
// forming the column line, and the root placement per RootAtSink.
func TestTreePlanShape(t *testing.T) {
	for name, cfg := range configs(4, 6) {
		t.Run(name, func(t *testing.T) {
			nw := newNetwork(t, cfg)
			plan, err := NewTreePlan(nw, PlanOptions{RootAtSink: cfg.EastSinks})
			if err != nil {
				t.Fatalf("NewTreePlan: %v", err)
			}
			topo := nw.Topology()
			seen := make(map[topology.NodeID]int)
			for r, line := range plan.Rows {
				if len(line.Nodes) != cfg.Cols {
					t.Fatalf("row %d has %d nodes, want %d", r, len(line.Nodes), cfg.Cols)
				}
				for _, id := range line.Nodes {
					seen[id]++
				}
				if line.TargetIsSink {
					t.Fatalf("row %d targets a sink; row lines must end at a PE", r)
				}
				if got := topo.Coord(line.Target); got.Col != cfg.Cols-1 {
					t.Fatalf("row %d target at col %d, want east column", r, got.Col)
				}
				if plan.Column.Nodes[r] != line.Target {
					t.Fatalf("column line node %d is %d, want row target %d", r, plan.Column.Nodes[r], line.Target)
				}
			}
			if len(seen) != topo.NumNodes() {
				t.Fatalf("row lines cover %d nodes, want %d", len(seen), topo.NumNodes())
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("node %d covered %d times", id, n)
				}
			}
			if cfg.EastSinks {
				if !plan.RootIsSink || plan.Root != nw.RowSinkID(cfg.Rows-1) {
					t.Fatalf("mesh RootAtSink plan rooted at %d (sink=%v)", plan.Root, plan.RootIsSink)
				}
			} else if plan.RootIsSink {
				t.Fatal("torus plan claims a sink root")
			}
			if plan.Dests(topo).Len() != topo.NumNodes() {
				t.Fatalf("Dests covers %d nodes, want all", plan.Dests(topo).Len())
			}
		})
	}
}

// TestTreePlanRootAtSinkNeedsSinks rejects sink-rooted plans on a torus.
func TestTreePlanRootAtSinkNeedsSinks(t *testing.T) {
	nw := newNetwork(t, noc.DefaultTorusConfig(4, 4))
	if _, err := NewTreePlan(nw, PlanOptions{RootAtSink: true}); err == nil {
		t.Fatal("RootAtSink on a torus should fail")
	}
}

// runAlone is workload.Run, which imports this package: every delivery to
// d, d started at the current cycle and registered until it drains.
func runAlone(nw *noc.Network, d *Driver, maxCycles int64) (int64, error) {
	nw.OnReceive(d.OnPacket)
	d.Start(nw.Engine().Cycle())
	return nw.Engine().RunWith(d, d.Drained, maxCycles)
}

// runCollective executes one collective run alone and applies the
// invariant checks every cell of the matrix must satisfy.
func runCollective(t *testing.T, cfg noc.Config, ccfg Config) *Result {
	t.Helper()
	nw := newNetwork(t, cfg)
	d, err := NewDriver(nw, ccfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	cycles, err := runAlone(nw, d, 200_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := d.Result(cycles)
	if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
		t.Fatalf("oracle errors %d, broadcast errors %d", res.OracleErrors, res.BroadcastErrors)
	}
	nodes := cfg.Rows * cfg.Cols
	for round := 0; round < ccfg.Rounds; round++ {
		if ccfg.Op != Broadcast && ccfg.Values == nil {
			if want := leafSum(nodes, round); res.Sums[round] != want {
				t.Fatalf("round %d sum %#x, want %#x", round, res.Sums[round], want)
			}
		}
		if ccfg.Op != Reduce {
			for id, v := range res.NodeValues[round] {
				if v != res.Sums[round] {
					t.Fatalf("round %d node %d got %#x, want %#x", round, id, v, res.Sums[round])
				}
			}
		}
	}
	return res
}

// TestCollectiveMatrix runs every op × algorithm × topology cell on a
// 4x4 fabric: oracle-exact reductions and bit-identical broadcast
// deliveries everywhere.
func TestCollectiveMatrix(t *testing.T) {
	for name, base := range configs(4, 4) {
		for _, alg := range []Algorithm{AlgTree, AlgFlat, AlgFused} {
			for _, op := range []Op{Reduce, Broadcast, AllReduce} {
				t.Run(name+"/"+alg.String()+"/"+op.String(), func(t *testing.T) {
					cfg := base
					if alg == AlgFused {
						cfg.EnableINA = true
					}
					runCollective(t, cfg, Config{
						Op: op, Algorithm: alg, Rounds: 2, ComputeLatency: 8,
					})
				})
			}
		}
	}
}

// TestCollectiveNonSquare runs the tree on fabrics whose column stage
// does not fit one gather packet (rows > capacity): δ fallbacks must keep
// the reduction exact.
func TestCollectiveNonSquare(t *testing.T) {
	for _, dims := range [][2]int{{6, 3}, {2, 5}, {1, 4}, {4, 1}} {
		cfg := noc.DefaultConfig(dims[0], dims[1])
		cfg.EnableINA = true
		for _, alg := range []Algorithm{AlgTree, AlgFused} {
			t.Run(alg.String(), func(t *testing.T) {
				runCollective(t, cfg, Config{
					Op: AllReduce, Algorithm: alg, Rounds: 1, ComputeLatency: 3,
				})
			})
		}
	}
}

// TestBroadcastValuesOverride pins the Broadcast op to caller-supplied
// values, the hook the metamorphic Reduce∘Broadcast composition uses.
func TestBroadcastValuesOverride(t *testing.T) {
	vals := []uint64{0xDEAD_BEEF_F00D_CAFE, 3}
	res := runCollective(t, noc.DefaultConfig(4, 4), Config{
		Op: Broadcast, Algorithm: AlgTree, Rounds: 2, BroadcastValues: vals,
	})
	for round, want := range vals {
		if res.Sums[round] != want {
			t.Fatalf("round %d broadcast %#x, want %#x", round, res.Sums[round], want)
		}
	}
}

// TestConfigValidate covers the named rejection paths.
func TestConfigValidate(t *testing.T) {
	good := Config{Op: AllReduce, Algorithm: AlgTree, Rounds: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Algorithm: AlgTree, Rounds: 1},
		{Op: Reduce, Rounds: 1},
		{Op: Reduce, Algorithm: AlgTree},
		{Op: Broadcast, Algorithm: AlgTree, Rounds: 3, BroadcastValues: []uint64{1}},
		{Op: Reduce, Algorithm: AlgTree, Rounds: 1, ComputeLatency: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := OpByName("nope"); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := AlgorithmByName("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range []string{"reduce", "bcast", "allreduce"} {
		if _, err := OpByName(name); err != nil {
			t.Fatalf("OpByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"tree", "flat", "fused"} {
		if _, err := AlgorithmByName(name); err != nil {
			t.Fatalf("AlgorithmByName(%q): %v", name, err)
		}
	}
}

// TestFusedNeedsINA rejects the fused algorithm without EnableINA.
func TestFusedNeedsINA(t *testing.T) {
	nw := newNetwork(t, noc.DefaultConfig(4, 4))
	_, err := NewDriver(nw, Config{Op: Reduce, Algorithm: AlgFused, Rounds: 1})
	if err == nil {
		t.Fatal("fused without EnableINA accepted")
	}
}

// TestLossyMulticastRejected pins which cells NewDriver refuses on a fabric
// with fault injection: the ones whose broadcast leg is one multicast
// packet, and only when flits can be lost or corrupted in flight.
func TestLossyMulticastRejected(t *testing.T) {
	faults := map[string]*fault.Config{
		"drop":    {Seed: 1, DropRate: 0.01},
		"corrupt": {Seed: 1, CorruptRate: 0.01},
		"outage":  {Seed: 1, Links: []fault.LinkOutage{{SrcNode: 0, DstNode: 1, Window: fault.Window{From: 1 << 30, Until: 1<<30 + 10}}}},
	}
	for fname, fc := range faults {
		for _, alg := range []Algorithm{AlgTree, AlgFlat, AlgFused} {
			for _, op := range []Op{Reduce, Broadcast, AllReduce} {
				cfg := noc.DefaultConfig(4, 4)
				cfg.EnableINA = true
				cfg.Faults = fc
				nw := newNetwork(t, cfg)
				_, err := NewDriver(nw, Config{Op: op, Algorithm: alg, Rounds: 1})
				want := fname != "outage" && op != Reduce && alg != AlgFlat
				if got := errors.Is(err, ErrLossyMulticast); got != want {
					t.Errorf("%s/%s/%s: ErrLossyMulticast = %v (err %v), want %v", fname, alg, op, got, err, want)
				}
				if !want && err != nil {
					t.Errorf("%s/%s/%s refused: %v", fname, alg, op, err)
				}
			}
		}
	}
}

// TestCollectivePayloadAfterVerification: an operand delivered after its
// reduction verified, a row's level-1 sum or the root's, is exactly one
// oracle error and never part of a sum.
func TestCollectivePayloadAfterVerification(t *testing.T) {
	const rows, cols = 4, 4
	nw := newNetwork(t, noc.DefaultConfig(rows, cols))
	d, err := NewDriver(nw, Config{Op: Reduce, Algorithm: AlgTree, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Start(0)
	errs := func() int { return d.Snapshot().OracleErrors }
	topo := nw.Topology()
	rowID := flit.TaggedReduceID(0, 0, 0)
	var row0 uint64
	for col := 0; col < cols; col++ {
		v := reduce.Operand(int(topo.ID(topology.Coord{Row: 0, Col: col})), 0)
		row0 += v
		d.OnPayload(flit.Payload{ReduceID: rowID, Value: v, Ops: 1})
	}
	if got := errs(); got != 0 {
		t.Fatalf("%d oracle errors after row 0's operands, want 0", got)
	}
	d.OnPayload(flit.Payload{ReduceID: rowID, Value: 1, Ops: 1})
	if got := errs(); got != 1 {
		t.Fatalf("%d oracle errors after a row operand past its verified reduction, want 1", got)
	}
	if d.rowSum[0] != row0 {
		t.Fatalf("row 0 relays %#x, want its verified sum %#x", d.rowSum[0], row0)
	}

	rootID := flit.TaggedReduceID(0, rows+rowIDColumnOffset, 0)
	for row := 0; row < rows; row++ {
		var sum uint64
		for col := 0; col < cols; col++ {
			sum += reduce.Operand(int(topo.ID(topology.Coord{Row: row, Col: col})), 0)
		}
		d.OnPayload(flit.Payload{ReduceID: rootID, Value: sum, Ops: cols})
	}
	if got := errs(); got != 1 || !d.reduceDone {
		t.Fatalf("root verified %v with %d oracle errors, want verified with 1", d.reduceDone, got)
	}
	d.OnPayload(flit.Payload{ReduceID: rootID, Value: 1, Ops: 1})
	if got := errs(); got != 2 {
		t.Fatalf("%d oracle errors after a root operand past its verified reduction, want 2", got)
	}
}
