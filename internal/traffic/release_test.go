package traffic

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// release identifies one operand payload by who produced it, when it was
// released and the sequence number the release gave it.
type release struct {
	Src        topology.NodeID
	ReadyCycle int64
	Seq        uint64
}

// fullScanDue is the reference releaseOperands is held to: the scan over
// every PE that the controller used to run on every cycle of a round. It
// returns the PEs due at cycle, in release order.
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

// scanShadow ticks the controller and, just before each tick, records what
// the per-cycle full scan would release in it. The controller gives every
// PE of a round the same compute latency, which would make the scan that
// releases anything release everything; the shadow therefore spreads each
// new round's completion times by hand, as startRound would with per-node
// latencies, so that most releasing scans leave other PEs pending.
type scanShadow struct {
	c         *AccumulationController
	staggered int // rounds spread so far
	want      []release
}

func (s *scanShadow) Tick(cycle int64) {
	c := s.c
	if !c.Done() {
		if c.round == s.staggered {
			s.staggered++
			for id := range c.doneAt {
				c.doneAt[id] += int64(id * 5 % 11)
				c.nextDue = min(c.nextDue, c.doneAt[id])
			}
		}
		for i, id := range fullScanDue(c.submitted, c.doneAt, cycle) {
			s.want = append(s.want, release{topology.NodeID(id), cycle, c.seq + uint64(i) + 1})
		}
	}
	c.Tick(cycle)
}

func TestReleaseMatchesPerCycleFullScan(t *testing.T) {
	for _, mesh := range []int{4, 8} {
		for _, scheme := range []CollectScheme{CollectGather, CollectUnicast} {
			t.Run(fmt.Sprintf("%dx%d/%s", mesh, mesh, scheme), func(t *testing.T) {
				nw, err := noc.New(noc.DefaultConfig(mesh, mesh))
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewAccumulationController(nw, AccumulationConfig{Scheme: scheme, Rounds: 3, ComputeLatency: 20})
				if err != nil {
					t.Fatal(err)
				}
				var got []release
				for row := 0; row < mesh; row++ {
					nw.Sink(row).OnReceive(func(p *nic.ReceivedPacket) {
						for _, pl := range p.Payloads {
							got = append(got, release{pl.Src, pl.ReadyCycle, pl.Seq})
						}
						c.OnPacket(p)
					})
				}
				shadow := &scanShadow{c: c}
				nw.Engine().AddTicker(shadow)
				if _, err := nw.Engine().RunUntil(c.Done, 1_000_000); err != nil {
					t.Fatal(err)
				}
				if errs := c.Snapshot().OracleErrors; errs != 0 {
					t.Fatalf("%d oracle errors", errs)
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
