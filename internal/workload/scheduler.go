package workload

import (
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
	"gathernoc/internal/telemetry"
)

// MaxJobs and MaxPhases bound a scheduler's job and per-job phase counts:
// the flit.TaggedReduceID encoding gives the job and phase index eight
// bits each, and the bounds keep every tag round-trippable through it.
// Job tags are offset by one (job j carries tag job field j+1) so the
// zero tag stays reserved for untagged traffic — a delivery with no
// scheduled owner is counted as an orphan instead of being silently
// attributed to job 0 — which costs one job slot of the 8-bit space.
const (
	MaxJobs   = 255
	MaxPhases = 256
)

// tagFor returns the tag assigned to phase p of job j (job offset by one;
// see MaxJobs).
func tagFor(j, p int) flit.Tag { return flit.NewTag(j+1, p) }

// phaseRun is one phase's runtime state.
type phaseRun struct {
	name   string
	driver Driver
	after  []Dep

	sink     PacketSink
	payloads PayloadSink

	started  bool
	injected bool
	drained  bool

	startedAt  int64
	injectedAt int64
	drainedAt  int64
}

// jobRun is one job's runtime state and per-job accounting.
type jobRun struct {
	name    string
	arrival int64
	phases  []phaseRun
	// remaining counts not-yet-drained phases.
	remaining int

	started   bool
	startAt   int64
	drainedAt int64

	ejected uint64
	latency stats.Sample
}

// Scheduler admits the phases of any number of jobs onto one network as
// their dependency edges fire, ticks the active drivers cycle by cycle,
// and owns the ejection-side dispatch: every NIC and edge-sink receive
// callback routes delivered packets back to the phase tagged on them,
// feeding the per-job accounts along the way.
//
// The scheduler is the single receive-callback owner of its network (it
// installs its dispatch with noc.Network.OnReceive); driver constructors
// wire no callbacks of their own (NewGeneratorDriver, not NewGenerator;
// NewReplayer without Run). Register it as an engine ticker after the
// network's components (Run does); its per-cycle work — admission scans,
// driver ticks, completion harvest — allocates nothing.
//
// A Scheduler is a plain sim.Ticker on purpose: it ticks every admitted
// driver every cycle (a round loop it ticks holds no wake handle and never
// sleeps), so it has no Idle and arms no timer, and a fabric it drives never
// jumps. bench/trace.go wraps it in a ticker that is not an Idler either,
// and bench/harness.go fails a traced op whose sim.evaluated or sim.skipped
// differ from the untraced ops'; giving it a sleep state would need the
// wrapper changed with it.
type Scheduler struct {
	nw   *noc.Network
	jobs []jobRun

	startAt   int64
	started   bool
	remaining int // phases not yet drained, across all jobs

	// probe records phase-boundary telemetry events (nil without tracing).
	// Scheduler ticks run on the engine's serial sub-phase, so the serial
	// probe is the right single-writer endpoint for any shard count.
	probe *telemetry.Probe

	// orphanPackets counts delivered packets whose tag names no scheduled
	// phase (untagged background traffic injected outside the scheduler);
	// orphanPayloads counts foreign-routed payloads whose owner either
	// does not exist or consumes no payloads. Both should be zero in a
	// fully scheduled run.
	orphanPackets  uint64
	orphanPayloads uint64
}

// New validates the jobs and wires a scheduler onto nw. Phase dependency
// edges must point at earlier phases of the same job (the DAG is given in
// topological order), and every driver that also injects alongside other
// jobs should implement Taggable — the scheduler assigns tag (j+1, p) to
// phase p of job j (the zero tag stays reserved for untagged traffic)
// and installs its dispatch as the receive callback of every NIC and
// edge sink.
func New(nw *noc.Network, jobs []Job) (*Scheduler, error) {
	if nw == nil {
		return nil, fmt.Errorf("workload: nil network")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("workload: no jobs")
	}
	if len(jobs) > MaxJobs {
		return nil, fmt.Errorf("workload: %d jobs exceeds the tag limit of %d", len(jobs), MaxJobs)
	}
	s := &Scheduler{nw: nw, jobs: make([]jobRun, len(jobs))}
	if tc := nw.Telemetry(); tc != nil && tc.Tracing() {
		s.probe = tc.SerialProbe()
	}
	for j, job := range jobs {
		if len(job.Phases) == 0 {
			return nil, fmt.Errorf("workload: job %d (%s) has no phases", j, job.Name)
		}
		if len(job.Phases) > MaxPhases {
			return nil, fmt.Errorf("workload: job %d (%s) has %d phases, tag limit is %d",
				j, job.Name, len(job.Phases), MaxPhases)
		}
		if job.Arrival < 0 {
			return nil, fmt.Errorf("workload: job %d (%s) has negative arrival %d", j, job.Name, job.Arrival)
		}
		jr := &s.jobs[j]
		jr.name = job.Name
		jr.arrival = job.Arrival
		jr.phases = make([]phaseRun, len(job.Phases))
		jr.remaining = len(job.Phases)
		for i, ph := range job.Phases {
			if ph.Driver == nil {
				return nil, fmt.Errorf("workload: job %d (%s) phase %d (%s) has no driver", j, job.Name, i, ph.Name)
			}
			for _, d := range ph.After {
				if d.Phase < 0 || d.Phase >= i {
					return nil, fmt.Errorf("workload: job %d (%s) phase %d (%s) depends on phase %d; edges must point at earlier phases",
						j, job.Name, i, ph.Name, d.Phase)
				}
			}
			pr := &jr.phases[i]
			pr.name = ph.Name
			pr.driver = ph.Driver
			pr.after = ph.After
			pr.sink, _ = ph.Driver.(PacketSink)
			pr.payloads, _ = ph.Driver.(PayloadSink)
			if tg, ok := ph.Driver.(Taggable); ok {
				tg.SetTag(tagFor(j, i))
			}
			if fr, ok := ph.Driver.(ForeignPayloadRouter); ok {
				fr.SetForeignPayloadHandler(s.routePayload)
			}
		}
		s.remaining += len(job.Phases)
	}

	// Ejection-side dispatch: the scheduler owns every receive callback.
	nw.OnReceive(s.onPacket)
	return s, nil
}

// phaseByTag resolves a tag to its phase, or nil for the zero (untagged)
// tag and tags naming no scheduled phase.
func (s *Scheduler) phaseByTag(t flit.Tag) *phaseRun {
	j, p := t.Job()-1, t.Phase()
	if j < 0 || j >= len(s.jobs) || p >= len(s.jobs[j].phases) {
		return nil
	}
	return &s.jobs[j].phases[p]
}

// onPacket is the shared receive callback: per-job accounting from the
// packet's tag, then dispatch to the owning driver. Untagged deliveries
// (traffic injected outside the scheduler, or a driver that does not
// implement Taggable) count as orphans.
func (s *Scheduler) onPacket(p *nic.ReceivedPacket) {
	pr := s.phaseByTag(p.Tag)
	if pr == nil {
		s.orphanPackets++
		return
	}
	jr := &s.jobs[p.Tag.Job()-1]
	jr.ejected++
	jr.latency.Observe(float64(p.Latency()))
	if pr.sink != nil {
		pr.sink.OnPacket(p)
	}
}

// routePayload delivers a payload that arrived inside another phase's
// collective packet to the phase its ReduceID names.
func (s *Scheduler) routePayload(pl flit.Payload) {
	pr := s.phaseByTag(flit.ReduceIDTag(pl.ReduceID))
	if pr == nil || pr.payloads == nil {
		s.orphanPayloads++
		return
	}
	pr.payloads.OnPayload(pl)
}

// depsMet reports whether every incoming edge of phase i has fired.
func (s *Scheduler) depsMet(jr *jobRun, pr *phaseRun) bool {
	for _, d := range pr.after {
		dep := &jr.phases[d.Phase]
		if d.Overlap {
			if !dep.injected {
				return false
			}
		} else if !dep.drained {
			return false
		}
	}
	return true
}

// Tick advances the schedule by one cycle: admit every phase whose
// dependencies are satisfied, tick the active drivers, then harvest
// injection/drain transitions (which fire edges for the next cycle's
// admissions — except that a phase admitted this cycle ticks this cycle,
// so a single dependency-free phase behaves bit-identically to the same
// driver run alone under Run).
func (s *Scheduler) Tick(cycle int64) {
	if !s.started {
		s.started = true
		s.startAt = cycle
	}
	for j := range s.jobs {
		jr := &s.jobs[j]
		if jr.remaining == 0 || cycle < s.startAt+jr.arrival {
			continue
		}
		// Admission scan, in phase order.
		for i := range jr.phases {
			pr := &jr.phases[i]
			if pr.started || !s.depsMet(jr, pr) {
				continue
			}
			pr.started = true
			pr.startedAt = cycle
			if !jr.started {
				jr.started = true
				jr.startAt = cycle
			}
			s.phaseEvent(telemetry.EvPhaseStart, j, i, cycle)
			pr.driver.Start(cycle)
		}
		// Drive and harvest.
		for i := range jr.phases {
			pr := &jr.phases[i]
			if !pr.started || pr.drained {
				continue
			}
			pr.driver.Tick(cycle)
			if !pr.injected && pr.driver.Injected() {
				pr.injected = true
				pr.injectedAt = cycle
				s.phaseEvent(telemetry.EvPhaseInjected, j, i, cycle)
			}
			if pr.driver.Drained() {
				pr.drained = true
				if !pr.injected {
					pr.injected = true
					pr.injectedAt = cycle
					s.phaseEvent(telemetry.EvPhaseInjected, j, i, cycle)
				}
				pr.drainedAt = cycle
				s.phaseEvent(telemetry.EvPhaseDrained, j, i, cycle)
				jr.remaining--
				s.remaining--
				if jr.remaining == 0 {
					jr.drainedAt = cycle
				}
			}
		}
	}
}

// phaseEvent records one phase-boundary trace event (no-op without a
// probe). Loc carries the job index, Aux the phase index.
func (s *Scheduler) phaseEvent(kind telemetry.EventKind, j, i int, cycle int64) {
	if s.probe == nil {
		return
	}
	s.probe.Emit(telemetry.Event{Cycle: cycle, Kind: kind, Tag: tagFor(j, i),
		Loc: int32(j), Aux: int64(i)})
}

// Done reports whether every phase of every job has drained.
func (s *Scheduler) Done() bool { return s.remaining == 0 }

// Run registers the scheduler with the network's engine for the length of
// the run and executes the whole schedule, returning the finalized per-job
// results. Call at most once.
func (s *Scheduler) Run(maxCycles int64) (*Result, error) {
	cycles, err := s.nw.Engine().RunWith(s, s.Done, maxCycles)
	if err != nil {
		return nil, fmt.Errorf("workload: %d jobs on %dx%d %s: %w",
			len(s.jobs), s.nw.Config().Rows, s.nw.Config().Cols,
			s.nw.Config().EffectiveTopology(), err)
	}
	return s.Result(cycles), nil
}

// Result builds the run summary; cycles is the total run length to
// record. Valid once Done reports true (Run calls it).
func (s *Scheduler) Result(cycles int64) *Result {
	r := &Result{
		Cycles:         cycles,
		Jobs:           make([]JobResult, len(s.jobs)),
		OrphanPackets:  s.orphanPackets,
		OrphanPayloads: s.orphanPayloads,
	}
	for j := range s.jobs {
		jr := &s.jobs[j]
		out := &r.Jobs[j]
		out.Name = jr.name
		out.StartCycle = jr.startAt
		out.DrainedCycle = jr.drainedAt
		out.PacketsEjected = jr.ejected
		out.Latency = &jr.latency
		out.Phases = make([]PhaseResult, len(jr.phases))
		for i := range jr.phases {
			pr := &jr.phases[i]
			out.Phases[i] = PhaseResult{
				Name:          pr.name,
				StartCycle:    pr.startedAt,
				InjectedCycle: pr.injectedAt,
				DrainedCycle:  pr.drainedAt,
			}
		}
	}
	return r
}

// PhaseResult is one phase's timeline in a finished run.
type PhaseResult struct {
	Name string
	// StartCycle is the admission cycle; InjectedCycle when the phase
	// finished injecting (its overlap edge fired); DrainedCycle when its
	// last packet was accounted (its barrier edge fired).
	StartCycle    int64
	InjectedCycle int64
	DrainedCycle  int64
}

// JobResult is one job's outcome: timeline, per-job packet accounting and
// latency distribution.
type JobResult struct {
	Name string
	// StartCycle is when the job's first phase was admitted and
	// DrainedCycle when its last phase drained.
	StartCycle   int64
	DrainedCycle int64
	// PacketsEjected counts delivered packets tagged for this job.
	PacketsEjected uint64
	// Latency samples the end-to-end latency of every such packet.
	Latency *stats.Sample
	// Phases holds the per-phase timelines in DAG order.
	Phases []PhaseResult
}

// Time returns the job's makespan in cycles.
func (j *JobResult) Time() int64 { return j.DrainedCycle - j.StartCycle }

// Throughput returns delivered packets per cycle over the job's makespan.
func (j *JobResult) Throughput() float64 {
	if t := j.Time(); t > 0 {
		return float64(j.PacketsEjected) / float64(t)
	}
	return 0
}

// Result summarizes a multi-job run.
type Result struct {
	// Cycles is the whole schedule's run length.
	Cycles int64
	// Jobs holds the per-job results in submission order.
	Jobs []JobResult
	// OrphanPackets and OrphanPayloads count deliveries no scheduled
	// phase claimed (zero in a fully scheduled run).
	OrphanPackets  uint64
	OrphanPayloads uint64
}

// JobTimes returns every job's makespan as float64s, the input to the
// fairness metrics.
func (r *Result) JobTimes() []float64 {
	ts := make([]float64, len(r.Jobs))
	for i := range r.Jobs {
		ts[i] = float64(r.Jobs[i].Time())
	}
	return ts
}

// MaxMinSlowdown returns the max/min ratio of job makespans — 1.0 is
// perfectly fair, and with identical jobs sharing the fabric it measures
// how unevenly contention taxed them.
func (r *Result) MaxMinSlowdown() float64 { return stats.MaxMinRatio(r.JobTimes()) }

// JainFairness returns Jain's fairness index of the job makespans
// (1.0 = perfectly even, 1/n = maximally skewed).
func (r *Result) JainFairness() float64 { return stats.JainIndex(r.JobTimes()) }
