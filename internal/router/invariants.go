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
//   - an input VC past route computation has at least one branch, and
//     no two of its branches share an output (so the one unsent branch
//     to an output SA grants is the credited one requestedOutputs saw);
//     an active VC holds a downstream VC on every branch;
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
	var buffered, loads, vaPending, active int32
	var occMask, vaMask, actMask, loadMask [topology.NumPorts]uint64
	nv := r.cfg.VCs
	for p := 0; p < topology.NumPorts; p++ {
		for v := 0; v < nv; v++ {
			s := r.slot(p, v)
			vc := &r.vcs[s]
			gather, reduce := vc.flags&gatherLoad != 0, vc.flags&reduceLoad != 0
			buffered += int32(vc.buf.Len())
			if !vc.buf.Empty() {
				occMask[p] |= 1 << v
			}
			if gather {
				loads++
			}
			if reduce {
				loads++
			}
			if gather || reduce {
				loadMask[p] |= 1 << v
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
			if (vc.stage == vcActive) && vc.nbr == 0 {
				return fmt.Errorf("router %d: input %s vc%d active without branches",
					r.id, topology.Port(p), v)
			}
			if gather && r.cold.station.HeldIndex(s) < 0 {
				return fmt.Errorf("router %d: input %s vc%d load raised without reservation",
					r.id, topology.Port(p), v)
			}
			if reduce && r.cold.rstation.HeldIndex(s) < 0 {
				return fmt.Errorf("router %d: input %s vc%d reduce load raised without reservation",
					r.id, topology.Port(p), v)
			}
			if vc.buf.Empty() && vc.stage != vcVA && vc.stage != vcActive &&
				(vc.stage != vcIdle || vc.wait != 0 || vc.nbr != 0 || gather || reduce) {
				return fmt.Errorf("router %d: input %s vc%d holds no flit and is neither in VA nor active, but not at rest (stage %d, wait %d, %d branches)",
					r.id, topology.Port(p), v, vc.stage, vc.wait, vc.nbr)
			}
			var outs uint8
			for _, br := range vc.branches() {
				if outs&(1<<br.out) != 0 {
					return fmt.Errorf("router %d: input %s vc%d has two branches to output %s",
						r.id, topology.Port(p), v, br.out)
				}
				outs |= 1 << br.out
				if vc.stage == vcActive && br.vc < 0 {
					return fmt.Errorf("router %d: input %s vc%d active without a downstream VC on output %s",
						r.id, topology.Port(p), v, br.out)
				}
			}
			head := r.head(s)
			for _, br := range vc.branches() {
				if br.vc < 0 {
					continue
				}
				if !r.connected(br.out) {
					return fmt.Errorf("router %d: branch to unconnected port %s", r.id, br.out)
				}
				// A branch that already forwarded the packet's tail has
				// released its downstream VC (per-branch wormhole
				// teardown) even while sibling branches are pending.
				if br.sent && head != nil && head.IsTail() {
					continue
				}
				if o := r.outVC(br.out, int(br.vc)); int(o.ownerPort) != p || int(o.ownerVC) != v {
					return fmt.Errorf("router %d: output %s vc%d owned by (%d,%d), branch claims (%d,%d)",
						r.id, br.out, br.vc, o.ownerPort, o.ownerVC, p, v)
				}
			}
		}
	}
	for p := 0; p < topology.NumPorts; p++ {
		if !r.connected(topology.Port(p)) {
			continue
		}
		for v := 0; v < nv; v++ {
			o := r.outVC(topology.Port(p), v)
			if o.credits > r.outDepth[p] {
				return fmt.Errorf("router %d: output %s vc%d credit %d > depth %d",
					r.id, topology.Port(p), v, o.credits, r.outDepth[p])
			}
			if o.ownerPort < 0 {
				continue
			}
			vc := &r.vcs[r.slot(int(o.ownerPort), int(o.ownerVC))]
			held := false
			for _, br := range vc.branches() {
				if br.out == topology.Port(p) && int(br.vc) == v {
					held = true
				}
			}
			if !held {
				return fmt.Errorf("router %d: output %s vc%d allocated to (%d,%d) which does not hold it",
					r.id, topology.Port(p), v, o.ownerPort, o.ownerVC)
			}
		}
	}
	if buffered != r.buffered || loads != r.loads || vaPending != r.vaPending || active != r.active {
		return fmt.Errorf("router %d: occupancy counters (buffered=%d loads=%d vaPending=%d active=%d) drifted from rescan (%d %d %d %d)",
			r.id, r.buffered, r.loads, r.vaPending, r.active, buffered, loads, vaPending, active)
	}
	if occMask != r.occMask || vaMask != r.vaMask || actMask != r.actMask || loadMask != r.loadMask {
		return fmt.Errorf("router %d: slot masks (occ=%x va=%x act=%x load=%x) drifted from rescan (%x %x %x %x)",
			r.id, r.occMask, r.vaMask, r.actMask, r.loadMask, occMask, vaMask, actMask, loadMask)
	}
	return nil
}
