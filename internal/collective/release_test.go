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

// fullScanDue is the reference releaseLeaves is held to: the scan over
// every PE that the driver used to run on every cycle of a round's compute
// phase. It returns the PEs due at cycle, in release order.
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

// scanShadow ticks the driver and, just before each tick, records what the
// per-cycle full scan would release in it. The driver gives every PE of a
// round the same compute latency, which would make the scan that releases
// anything release everything; the shadow therefore spreads each new
// round's completion times by hand, as startRound would with per-node
// latencies, so that most releasing scans leave other PEs pending.
type scanShadow struct {
	d         *Driver
	staggered int // rounds spread so far
	want      []release
}

func (s *scanShadow) Tick(cycle int64) {
	d := s.d
	if !d.Done() {
		if d.round == s.staggered {
			s.staggered++
			for id := range d.doneAt {
				d.doneAt[id] += int64(id * 5 % 11)
				d.nextDue = min(d.nextDue, d.doneAt[id])
			}
		}
		// Leaves are released before the tick's row-sum relays, so they
		// take the next sequence numbers.
		for i, id := range fullScanDue(d.submitted, d.doneAt, cycle) {
			s.want = append(s.want, release{topology.NodeID(id), cycle, d.seq + uint64(i) + 1})
		}
	}
	d.Tick(cycle)
}

func TestReleaseMatchesPerCycleFullScan(t *testing.T) {
	for _, mesh := range []int{4, 8} {
		for _, alg := range []Algorithm{AlgTree, AlgFlat} { // gather and repetitive unicast
			t.Run(fmt.Sprintf("%dx%d/%s", mesh, mesh, alg), func(t *testing.T) {
				nw := newNetwork(t, noc.DefaultConfig(mesh, mesh))
				d, err := NewController(nw, Config{Op: Reduce, Algorithm: alg, Rounds: 3, ComputeLatency: 20})
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
				for id := 0; id < mesh*mesh; id++ {
					nw.NIC(topology.NodeID(id)).OnReceive(record)
				}
				for row := 0; row < mesh; row++ {
					nw.Sink(row).OnReceive(record)
				}
				shadow := &scanShadow{d: d}
				nw.Engine().AddTicker(shadow)
				if _, err := nw.Engine().RunUntil(d.Done, 1_000_000); err != nil {
					t.Fatal(err)
				}
				if errs := d.Snapshot().OracleErrors; errs != 0 {
					t.Fatalf("%d oracle errors", errs)
				}
				sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
				if !reflect.DeepEqual(got, shadow.want) {
					t.Fatalf("released leaves differ from the per-cycle full scan\n got %v\nwant %v", got, shadow.want)
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
