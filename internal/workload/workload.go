// Package workload is the job/phase layer above the cycle-accurate
// network: it models a workload as a DAG of dependent traffic phases
// (a multi-layer CNN inference, a synthetic soak, a trace replay) and
// schedules any number of such jobs concurrently on one fabric.
//
// A Phase wraps a Driver — the injection logic of one traffic stage; the
// round controllers (systolic.Controller, traffic.AccumulationController,
// collective.Driver), traffic.Generator and traffic.Replayer all implement
// it — and names the earlier phases it depends on. Dependency edges come in two
// strengths matching the accelerator's buffering discipline (DESIGN.md
// §8):
//
//   - a barrier edge admits the successor only when the predecessor has
//     fully drained (every packet delivered and verified) — the
//     single-buffered regime where layer k+1's input buffer is the same
//     SRAM layer k streams its results into;
//   - an overlap edge admits the successor as soon as the predecessor has
//     finished injecting — double-buffered pipelining, where the next
//     layer's compute starts while the previous layer's tail traffic is
//     still draining through the NoC and the two layers' flits contend in
//     the routers.
//
// The Scheduler assigns every phase a flit.Tag (job index, phase index);
// the phase's driver passes it to each NIC send, it rides through
// packetization, the routers and ejection-side reassembly, and the
// scheduler dispatches each delivered packet back to its owning driver —
// which makes per-job latency, throughput and fairness first-class outputs
// of a shared-fabric run instead of aggregates smeared across jobs.
//
// Run is the other way to drive a round controller: alone on a fabric,
// without a scheduler, sleeping between the cycles it has work in.
package workload

import (
	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
)

// Run runs d alone on nw: it makes d.OnPacket the receive callback of every
// NIC and edge sink (noc.Network.OnReceive), starts d at the engine's
// current cycle, and steps the engine with d registered as a ticker until d
// has drained. A driver that sleeps (a round loop) is handed its wake
// handle, so it is ticked only in the cycles it has work in and the clock
// jumps the stretches in which nothing is awake. Run returns the engine
// cycle at exit; the driver's Result reads the outcome. Errors are the
// engine's (sim.ErrMaxCyclesExceeded, ErrStalled, ErrInterrupted).
//
// A round loop run alone on a bare fabric (noc.Network.Bare) whose
// controller can repeat its rounds (round.Repeater: the systolic layer)
// proves, at each round open, whether the round repeats the one before and
// stops simulating once it does (round.Loop.Settled); one that follows a
// trajectory table (round.Loop.Join) may replay an earlier run's rounds
// without simulating any. Its Result is then the one simulating every
// round gives, and Run returns the cycle that run ends at, past the
// engine's clock.
func Run(nw *noc.Network, d interface {
	Driver
	PacketSink
}, maxCycles int64) (int64, error) {
	nw.OnReceive(d.OnPacket)
	e := nw.Engine()
	done := d.Drained
	p, ok := d.(provable)
	if ok && nw.Bare() && p.ProveRepeats(e.Cycle()+maxCycles, nw.ClockPeriod()) {
		done = func() bool { return p.Settled(e.Cycle()) }
	} else {
		p = nil
	}
	d.Start(e.Cycle())
	cycle, err := e.RunWith(d, done, maxCycles)
	if p != nil {
		cycle += p.Skipped()
	}
	return cycle, err
}

// provable is the round loop's periodicity proof (round.Loop.ProveRepeats).
type provable interface {
	ProveRepeats(limit, rotation int64) bool
	Settled(cycle int64) bool
	Skipped() int64
}

// Driver is one phase's injection logic. The scheduler admits the phase
// (Start), ticks it every cycle while it is active, and consults
// Injected/Drained to fire the phase's outgoing dependency edges. A
// driver must be prepared for Tick calls after Drained (they must be
// no-ops) and must never touch the network before Start.
type Driver interface {
	// Start is called once, at the cycle the phase is admitted; drivers
	// measure their internal timelines from it.
	Start(cycle int64)
	// Tick advances the phase by one cycle (injection, timeouts, round
	// bookkeeping).
	Tick(cycle int64)
	// Injected reports whether the phase has finished injecting: its
	// overlap-edge successors may start while its traffic drains.
	Injected() bool
	// Drained reports whether every packet of the phase has been
	// delivered and accounted: its barrier-edge successors may start and
	// the phase is complete.
	Drained() bool
}

// PacketSink is implemented by drivers that consume their delivered
// packets; the scheduler dispatches each ejected packet to the driver
// owning the packet's tag.
type PacketSink interface {
	OnPacket(p *nic.ReceivedPacket)
}

// PayloadSink is implemented by drivers that account individual payloads.
// Collective packets can carry payloads belonging to another phase (a
// gather packet of phase B picks up phase A's waiting payload at a shared
// sink's row); the scheduler re-routes such strays to the payload's owner
// through this interface.
type PayloadSink interface {
	OnPayload(pl flit.Payload)
}

// Taggable is implemented by drivers that pass the workload tag the
// scheduler assigns to every NIC send they make; every driver admitted
// alongside others on one fabric must implement it, or its packets are
// untagged background noise (counted as orphans, never as another
// job's).
type Taggable interface {
	SetTag(t flit.Tag)
}

// ForeignPayloadRouter is implemented by drivers whose packets may carry
// other phases' payloads; the scheduler installs its payload-routing hook
// through it.
type ForeignPayloadRouter interface {
	SetForeignPayloadHandler(fn func(flit.Payload))
}

// Dep is one incoming dependency edge of a phase.
type Dep struct {
	// Phase is the index (within the same job) of the predecessor. It
	// must be smaller than the dependent phase's own index, which keeps
	// every job DAG trivially acyclic.
	Phase int
	// Overlap selects the edge strength: false waits for the predecessor
	// to drain (strict barrier), true only for it to finish injecting
	// (double-buffered pipelining).
	Overlap bool
}

// Phase is one node of a job's DAG.
type Phase struct {
	// Name labels the phase in results ("Conv1", "background", ...).
	Name string
	// Driver injects the phase's traffic.
	Driver Driver
	// After lists the phase's incoming dependency edges; a phase with
	// none is admitted at the job's start.
	After []Dep
}

// Job is an independent workload sharing the fabric with its peers: one
// inference of a layer pipeline, one synthetic soak, one trace replay.
type Job struct {
	// Name labels the job in results.
	Name string
	// Arrival delays the job's admission by this many cycles after the
	// schedule starts (0 = immediately), modeling batched inferences
	// arriving over time.
	Arrival int64
	// Phases holds the job's DAG in index order.
	Phases []Phase
}
