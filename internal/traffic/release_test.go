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

// roundClock ticks the controller and notes the cycle each round opens on.
type roundClock struct {
	c      *AccumulationController
	opened []int64
}

func (r *roundClock) Tick(cycle int64) {
	before := r.c.Round()
	r.c.Tick(cycle)
	if r.c.Round() != before && !r.c.Done() {
		r.opened = append(r.opened, cycle)
	}
}

// Every PE of a round is ready one compute latency after the round opens,
// so a scan of the mesh on every cycle releases the whole round on that
// cycle, in node order, with consecutive sequence numbers. The controller's
// schedule, payloads and numbering through the round loop must match it;
// staggered completion is the round package's own test.
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
				nw.OnReceive(func(p *nic.ReceivedPacket) {
					for _, pl := range p.Payloads {
						got = append(got, release{pl.Src, pl.ReadyCycle, pl.Seq})
					}
					c.OnPacket(p)
				})
				c.Start(0)
				clock := &roundClock{c: c, opened: []int64{0}}
				nw.Engine().AddTicker(clock)
				if _, err := nw.Engine().RunUntil(c.Done, 1_000_000); err != nil {
					t.Fatal(err)
				}
				if errs := c.Snapshot().OracleErrors; errs != 0 {
					t.Fatalf("%d oracle errors", errs)
				}
				sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
				var want []release
				for _, opened := range clock.opened {
					for id := 0; id < mesh*mesh; id++ {
						want = append(want, release{topology.NodeID(id), opened + 20, uint64(len(want) + 1)})
					}
				}
				if len(clock.opened) != 3 || !reflect.DeepEqual(got, want) {
					t.Fatalf("released payloads differ from the per-cycle full scan of rounds opened at %v\n got %v\nwant %v", clock.opened, got, want)
				}
			})
		}
	}
}
