package systolic

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// release identifies one result payload by who produced it, when it was
// released and the sequence number the release gave it.
type release struct {
	Src        topology.NodeID
	ReadyCycle int64
	Seq        uint64
}

// fullScanDue is the reference the round loop's release is held to: a scan
// over every PE on every cycle of a round. It returns the PEs due at cycle,
// in release order.
func fullScanDue(submitted []bool, doneAt []int64, cycle int64) []int {
	var due []int
	for id := range submitted {
		if submitted[id] || doneAt[id] > cycle {
			continue
		}
		due = append(due, id)
	}
	return due
}

// scanShadow ticks the controller beside its own copy of the completion
// schedule, worked out from the Config alone, and records what the
// per-cycle full scan of that copy releases.
type scanShadow struct {
	c         *Controller
	doneAt    []int64
	submitted []bool
	seq       uint64
	want      []release
}

// open schedules a round opening at now: SkewPerHop per hop of systolic
// distance on top of the compute latency, bottom row only under WS.
func (s *scanShadow) open(now int64) {
	c := s.c
	for id := range s.doneAt {
		coord := c.nw.Topology().Coord(topology.NodeID(id))
		s.submitted[id] = c.cfg.Dataflow == WeightStationary && coord.Row != c.rows-1
		s.doneAt[id] = now + int64(c.cfg.SkewPerHop*(coord.Row+coord.Col)+c.cfg.computeLatency(c.rows))
	}
}

func (s *scanShadow) Tick(cycle int64) {
	if s.c.Done() {
		return
	}
	for _, id := range fullScanDue(s.submitted, s.doneAt, cycle) {
		s.submitted[id] = true
		s.seq++
		s.want = append(s.want, release{topology.NodeID(id), cycle, s.seq})
	}
	round := s.c.Round()
	s.c.Tick(cycle)
	if s.c.Round() != round {
		s.open(cycle)
	}
}

// With completion staggered across the array, most scans that release
// something leave other PEs pending, so the next-due cycle is recomputed
// many times per round. Every payload must still leave its PE on the cycle,
// and with the sequence number, the per-cycle full scan gives it.
func TestReleaseMatchesPerCycleFullScan(t *testing.T) {
	for _, mesh := range []int{4, 8} {
		for _, mode := range []Mode{GatherMode, RepetitiveUnicast} {
			for _, df := range []Dataflow{OutputStationary, WeightStationary} {
				t.Run(fmt.Sprintf("%dx%d/%s/%s", mesh, mesh, mode, df), func(t *testing.T) {
					nw, err := noc.New(noc.DefaultConfig(mesh, mesh))
					if err != nil {
						t.Fatal(err)
					}
					c, err := NewController(nw, Config{
						Layer: smallLayer(), Mode: mode, Dataflow: df, TMAC: 5, MaxRounds: 3, SkewPerHop: 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					var got []release
					nw.OnReceive(func(p *nic.ReceivedPacket) {
						for _, pl := range p.Payloads {
							got = append(got, release{pl.Src, pl.ReadyCycle, pl.Seq})
						}
						c.OnPacket(p)
					})
					c.Start(0)
					shadow := &scanShadow{c: c, doneAt: make([]int64, mesh*mesh), submitted: make([]bool, mesh*mesh)}
					shadow.open(0)
					nw.Engine().AddTicker(shadow)
					if _, err := nw.Engine().RunUntil(c.Done, 1_000_000); err != nil {
						t.Fatal(err)
					}
					if errs := c.Result().PayloadErrors; errs != 0 {
						t.Fatalf("%d payload errors", errs)
					}
					sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
					if !reflect.DeepEqual(got, shadow.want) {
						t.Fatalf("released payloads differ from the per-cycle full scan\n got %v\nwant %v", got, shadow.want)
					}
					cycles := map[int64]bool{}
					for _, r := range got {
						cycles[r.ReadyCycle] = true
					}
					if len(cycles) < 3*3 {
						t.Fatalf("only %d distinct release cycles over 3 rounds: completion was not staggered", len(cycles))
					}
				})
			}
		}
	}
}
