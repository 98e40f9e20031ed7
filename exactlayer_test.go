package gathernoc

import (
	"fmt"
	"reflect"
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/round"
	"gathernoc/internal/stats"
	"gathernoc/internal/systolic"
	"gathernoc/internal/workload"
)

// wholeLayer runs cfg's whole layer alone under workload.Run on a fresh
// 8×8 with net applied, following t when it is not nil, and returns its
// Result, the cycle Run returns and the engine clock at exit.
func wholeLayer(t *testing.T, cfg systolic.Config, net func(*noc.Config), tr *round.Trajectories) (*systolic.Result, int64, int64) {
	t.Helper()
	nc := noc.DefaultConfig(8, 8)
	if net != nil {
		net(&nc)
	}
	nw, err := noc.New(nc)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctl, err := systolic.NewController(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		ctl.Join(tr, trajectoryKey(nw, cfg))
		defer ctl.Leave()
	}
	cycles, err := workload.Run(nw, ctl, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return ctl.Result(), cycles, nw.Engine().Cycle()
}

// counts is a sample's distinct values and their counts.
func counts(s *stats.Sample) string {
	v, n := s.Counts()
	return fmt.Sprint(v, n)
}

// TestProvenLayerEqualsRoundByRound holds a whole layer accounted by the
// periodicity proof to the same layer simulated round by round: AlexNet
// Conv3 on 8×8 run alone under workload.Run, which proves its rounds
// repeat and accounts the rest, and as the one phase of a
// workload.Scheduler job, which never proves. Their round and collection
// latencies (every value and its count), end cycle, NoC activity,
// self-initiated gathers and piggyback acks must be equal. The subjects
// prove at three lags: gather at the paper's operating point repeats its
// previous open (no clock ties move); skew 4 under RU and flat δ 5 under
// gather move the ties and repeat only a whole number of 20-cycle
// rotations back, 10 and 2 rounds. Every round of each lasts the same, so
// the proof fires at the open of round lag+1.
func TestProvenLayerEqualsRoundByRound(t *testing.T) {
	layer := conv3(t)
	for _, c := range []struct {
		name string
		mode systolic.Mode
		sys  func(*systolic.Config)
		net  func(*noc.Config)
		lag  int64
	}{
		{"gather", systolic.GatherMode, nil, nil, 1},
		{"skew 4 RU", systolic.RepetitiveUnicast, func(s *systolic.Config) { s.SkewPerHop = 4 }, nil, 10},
		{"flat δ 5 gather", systolic.GatherMode, func(s *systolic.Config) { s.FlatDelta = true },
			func(n *noc.Config) { n.Delta = 5 }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := systolic.Config{Layer: layer, Mode: c.mode, TMAC: 5}
			if c.sys != nil {
				c.sys(&cfg)
			}
			proven, cycles, clock := wholeLayer(t, cfg, c.net, nil)
			if int64(proven.RoundCycles.N()) != proven.TotalRounds {
				t.Fatalf("the run covered %d of the layer's %d rounds", proven.RoundCycles.N(), proven.TotalRounds)
			}
			period := int64(proven.RoundCycles.Min())
			if proven.RoundCycles.Max() != float64(period) || clock != (c.lag+1)*period+1 {
				t.Errorf("rounds of %v–%v cycles, proof at clock %d; want one latency and the proof at the open of round %d, clock %d",
					proven.RoundCycles.Min(), proven.RoundCycles.Max(), clock, c.lag+1, (c.lag+1)*period+1)
			}

			nc := noc.DefaultConfig(8, 8)
			if c.net != nil {
				c.net(&nc)
			}
			nw, err := noc.New(nc)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			ctl, err := systolic.NewController(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := workload.New(nw, []workload.Job{
				{Name: "layer", Phases: []workload.Phase{{Name: layer.Name, Driver: ctl}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			each := ctl.Result()

			if cycles != res.Cycles {
				t.Errorf("the proven run ends at %d, round by round at %d", cycles, res.Cycles)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"round latencies", counts(&proven.RoundCycles), counts(&each.RoundCycles)},
				{"collection latencies", counts(&proven.CollectionCycles), counts(&each.CollectionCycles)},
				{"measured cycles", proven.MeasuredCycles, each.MeasuredCycles},
				{"activity", proven.Activity, each.Activity},
				{"self-initiated gathers", proven.SelfInitiatedGathers, each.SelfInitiatedGathers},
				{"piggyback acks", proven.PiggybackAcks, each.PiggybackAcks},
				{"payload errors", proven.PayloadErrors, each.PayloadErrors},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s: proven %v, round by round %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

// TestLayerArtifactCellsProve: every cell of the five ablations (AlexNet
// Conv3 on 8×8 under each swept value, as experiments.AblationDelta, Eta,
// BufferDepth, SinkCost and Skew run it, each alone) and every layer of
// both full models (following one trajectory table per model, as the
// sweep does) covers its whole layer, and closes by the periodicity proof
// or a replay: no run simulates its whole layer.
func TestLayerArtifactCellsProve(t *testing.T) {
	type cell struct {
		name  string
		layer cnn.LayerConfig
		sys   func(*systolic.Config)
		net   func(*noc.Config)
		table *round.Trajectories
	}
	var cells []cell
	ablation := func(param string, values []int, sys func(int, *systolic.Config), net func(int, *noc.Config)) {
		for _, v := range values {
			c := cell{name: fmt.Sprintf("%s %d", param, v), layer: conv3(t)}
			if sys != nil {
				c.sys = func(s *systolic.Config) { sys(v, s) }
			}
			if net != nil {
				c.net = func(n *noc.Config) { net(v, n) }
			}
			cells = append(cells, c)
		}
	}
	ablation("delta", []int{0, 1, 2, 5, 10, 20, 40},
		func(_ int, s *systolic.Config) { s.FlatDelta = true }, func(v int, n *noc.Config) { n.Delta = int64(v) })
	ablation("eta", []int{2, 4, 8, 16}, nil, func(v int, n *noc.Config) { n.GatherCapacity = v })
	ablation("depth", []int{2, 4, 8}, nil, func(v int, n *noc.Config) { n.Router.BufferDepth = v })
	ablation("sinkcost", []int{0, 1, 2, 3, 4, 5, 6, 8, 10}, nil, func(v int, n *noc.Config) { n.SinkPacketOverhead = int64(v) })
	ablation("skew", []int{0, 1, 2, 4}, func(v int, s *systolic.Config) { s.SkewPerHop = v }, nil)
	for _, model := range [][]cnn.LayerConfig{cnn.AlexNetAllLayers(), cnn.VGG16AllLayers()} {
		table := new(round.Trajectories)
		for _, l := range model {
			cells = append(cells, cell{name: l.Model + "/" + l.Name, layer: l, table: table})
		}
	}
	for _, c := range cells {
		for _, mode := range []systolic.Mode{systolic.RepetitiveUnicast, systolic.GatherMode} {
			t.Run(c.name+"/"+mode.String(), func(t *testing.T) {
				cfg := systolic.Config{Layer: c.layer, Mode: mode, TMAC: 5}
				if c.sys != nil {
					c.sys(&cfg)
				}
				res, cycles, clock := wholeLayer(t, cfg, c.net, c.table)
				if int64(res.RoundCycles.N()) != res.TotalRounds {
					t.Errorf("covered %d of the layer's %d rounds", res.RoundCycles.N(), res.TotalRounds)
				}
				if clock >= cycles {
					t.Errorf("simulated the whole layer: clock %d, run ends at %d", clock, cycles)
				}
			})
		}
	}
}
