package router

import (
	"fmt"

	"gathernoc/internal/topology"
)

// CheckInvariants validates the router's internal consistency and returns
// the first violation found. It is intended for tests and debugging runs
// (call between cycles); a healthy router never violates these:
//
//   - input buffers never exceed the configured depth;
//   - credit counters stay within [0, downstream depth];
//   - an input VC past route computation has at least one branch;
//   - every downstream-VC ownership entry points back at an input VC that
//     actually holds that allocation;
//   - a raised gather or accumulate Load signal has a reserved station
//     entry;
//   - a VC holding no flit and neither in VA nor active is at rest: idle,
//     with no stage wait, no branch and no Load (the periodicity proof,
//     AppendState, writes only the VCs that are not);
//   - the incrementally maintained stage-occupancy counters (which let
//     Tick skip whole pipeline stages) and slot masks (which let a stage
//     visit only the VCs it could act on) agree with a full rescan.
func (r *Router) CheckInvariants() error {
	buffered, loads, vaPending, active := 0, 0, 0, 0
	var occMask, vaMask, actMask [topology.NumPorts]uint64
	for p := 0; p < topology.NumPorts; p++ {
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			buffered += vc.buf.Len()
			if !vc.buf.Empty() {
				occMask[p] |= 1 << v
			}
			if vc.gatherLoad {
				loads++
			}
			if vc.reduceLoad {
				loads++
			}
			switch vc.stage {
			case vcVA:
				vaPending++
				vaMask[p] |= 1 << v
			case vcActive:
				active++
				actMask[p] |= 1 << v
			}
			if vc.buf.Len() > r.cfg.BufferDepth {
				return fmt.Errorf("router %d: input %s vc%d holds %d flits (depth %d)",
					r.id, topology.Port(p), v, vc.buf.Len(), r.cfg.BufferDepth)
			}
			if (vc.stage == vcActive) && len(vc.branches) == 0 {
				return fmt.Errorf("router %d: input %s vc%d active without branches",
					r.id, topology.Port(p), v)
			}
			if vc.gatherLoad && vc.gatherEntry == nil {
				return fmt.Errorf("router %d: input %s vc%d load raised without reservation",
					r.id, topology.Port(p), v)
			}
			if vc.reduceLoad && vc.reduceEntry == nil {
				return fmt.Errorf("router %d: input %s vc%d reduce load raised without reservation",
					r.id, topology.Port(p), v)
			}
			if vc.buf.Empty() && vc.stage != vcVA && vc.stage != vcActive &&
				(vc.stage != vcIdle || vc.wait != 0 || len(vc.branches) != 0 || vc.gatherLoad || vc.reduceLoad) {
				return fmt.Errorf("router %d: input %s vc%d holds no flit and is neither in VA nor active, but not at rest (stage %d, wait %d, %d branches)",
					r.id, topology.Port(p), v, vc.stage, vc.wait, len(vc.branches))
			}
			head := vc.head()
			for bi := range vc.branches {
				br := &vc.branches[bi]
				if br.vc < 0 {
					continue
				}
				out := &r.outputs[br.out]
				if !out.connected() {
					return fmt.Errorf("router %d: branch to unconnected port %s", r.id, br.out)
				}
				// A branch that already forwarded the packet's tail has
				// released its downstream VC (per-branch wormhole
				// teardown) even while sibling branches are pending.
				if br.sent && head != nil && head.IsTail() {
					continue
				}
				if out.ownerPort[br.vc] != p || out.ownerVC[br.vc] != v {
					return fmt.Errorf("router %d: output %s vc%d owned by (%d,%d), branch claims (%d,%d)",
						r.id, br.out, br.vc, out.ownerPort[br.vc], out.ownerVC[br.vc], p, v)
				}
			}
		}
	}
	for p := 0; p < topology.NumPorts; p++ {
		out := &r.outputs[p]
		if !out.connected() {
			continue
		}
		for v, c := range out.credits {
			if c < 0 {
				return fmt.Errorf("router %d: output %s vc%d credit %d < 0",
					r.id, topology.Port(p), v, c)
			}
		}
		for v := range out.ownerPort {
			op, ov := out.ownerPort[v], out.ownerVC[v]
			if op < 0 {
				continue
			}
			vc := &r.inputs[op][ov]
			held := false
			for bi := range vc.branches {
				if vc.branches[bi].out == topology.Port(p) && vc.branches[bi].vc == v {
					held = true
				}
			}
			if !held {
				return fmt.Errorf("router %d: output %s vc%d allocated to (%d,%d) which does not hold it",
					r.id, topology.Port(p), v, op, ov)
			}
		}
	}
	if buffered != r.buffered || loads != r.loads || vaPending != r.vaPending || active != r.active {
		return fmt.Errorf("router %d: occupancy counters (buffered=%d loads=%d vaPending=%d active=%d) drifted from rescan (%d %d %d %d)",
			r.id, r.buffered, r.loads, r.vaPending, r.active, buffered, loads, vaPending, active)
	}
	if occMask != r.occMask || vaMask != r.vaMask || actMask != r.actMask {
		return fmt.Errorf("router %d: slot masks (occ=%x va=%x act=%x) drifted from rescan (%x %x %x)",
			r.id, r.occMask, r.vaMask, r.actMask, occMask, vaMask, actMask)
	}
	return nil
}
