package collective

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// release identifies one leaf operand by who produced it, when it was
// released and the sequence number the release gave it.
type release struct {
	Src        topology.NodeID
	ReadyCycle int64
	Seq        uint64
}

// roundClock ticks the driver and notes the cycle each round opens on.
type roundClock struct {
	d      *Driver
	opened []int64
}

func (r *roundClock) Tick(cycle int64) {
	before := r.d.Round()
	r.d.Tick(cycle)
	if r.d.Round() != before && !r.d.Done() {
		r.opened = append(r.opened, cycle)
	}
}

// Every PE of a round is ready one compute latency after the round opens,
// so a scan of the mesh on every cycle releases the whole round's leaves on
// that cycle, in node order, with consecutive sequence numbers; the tick's
// row-sum relays come after the leaves, so they take the numbers that follow
// (one per row under the tree, none under flat). The driver's schedule,
// payloads and numbering through the round loop must match; staggered
// completion is the round package's own test.
func TestReleaseMatchesPerCycleFullScan(t *testing.T) {
	for _, mesh := range []int{4, 8} {
		for _, alg := range []Algorithm{AlgTree, AlgFlat} { // gather and repetitive unicast
			t.Run(fmt.Sprintf("%dx%d/%s", mesh, mesh, alg), func(t *testing.T) {
				nw := newNetwork(t, noc.DefaultConfig(mesh, mesh))
				d, err := NewDriver(nw, Config{Op: Reduce, Algorithm: alg, Rounds: 3, ComputeLatency: 20})
				if err != nil {
					t.Fatal(err)
				}
				var got []release
				record := func(p *nic.ReceivedPacket) {
					for _, pl := range p.Payloads {
						if pl.Ops == 1 { // a leaf, not a relayed row sum
							got = append(got, release{pl.Src, pl.ReadyCycle, pl.Seq})
						}
					}
					d.OnPacket(p)
				}
				nw.OnReceive(record)
				d.Start(0)
				clock := &roundClock{d: d, opened: []int64{0}}
				nw.Engine().AddTicker(clock)
				if _, err := nw.Engine().RunUntil(d.Done, 1_000_000); err != nil {
					t.Fatal(err)
				}
				if errs := d.Snapshot().OracleErrors; errs != 0 {
					t.Fatalf("%d oracle errors", errs)
				}
				sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
				perRound := mesh * mesh // sequence numbers one round takes
				if alg == AlgTree {
					perRound += mesh
				}
				var want []release
				for r, opened := range clock.opened {
					for id := 0; id < mesh*mesh; id++ {
						want = append(want, release{topology.NodeID(id), opened + 20, uint64(r*perRound + id + 1)})
					}
				}
				if len(clock.opened) != 3 || !reflect.DeepEqual(got, want) {
					t.Fatalf("released leaves differ from the per-cycle full scan of rounds opened at %v\n got %v\nwant %v", clock.opened, got, want)
				}
			})
		}
	}
}
