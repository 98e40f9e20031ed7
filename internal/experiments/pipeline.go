package experiments

import (
	"context"
	"fmt"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// PipelineRow is one (fabric, mode) cell of the whole-model pipeline
// comparison.
type PipelineRow struct {
	Model    string
	Topology string
	// Mode is "analytic" (the sum of independent per-layer runs — the
	// composition the repository used before the workload scheduler),
	// "barrier" (cycle-accurate sequential composition) or "overlap"
	// (double-buffered pipelining with inter-layer contention).
	Mode string
	// Layers is the layer count of the model.
	Layers int
	// Cycles is the simulated makespan of the composed run (for the
	// analytic row, the sum of the independent runs' cycle counts).
	Cycles int64
	// OracleErrors counts row reductions that failed verification
	// (must be 0).
	OracleErrors int
}

// pipelinePoint is one cell of the comparison sweep.
type pipelinePoint struct {
	topology string
	mode     string
}

// pipelineFabric acquires the 8x8 network for a topology name. The caller
// releases it.
func pipelineFabric(topology string) (*noc.Network, error) {
	cfg := noc.DefaultConfig(8, 8)
	if topology == "torus" {
		cfg = noc.DefaultTorusConfig(8, 8)
	}
	return noc.Acquire(cfg)
}

// PipelineComparison runs the complete model (opts.Model, default
// AlexNet) through the cycle-accurate workload scheduler on an 8x8 mesh
// and torus, in strict-barrier and double-buffered-overlap modes, and
// against the analytic composition of independent per-layer runs — the
// composition that whole-model results were stitched from before
// phases could contend on one fabric, now demoted to a cross-check role:
// the barrier makespan must land within a few percent of it (the residue
// is the per-boundary admission cycle and the VA rotation phase each
// layer inherits from its start cycle), while overlap must come in
// strictly below barrier.
func PipelineComparison(opts Options) ([]PipelineRow, error) {
	model := opts.model()
	layers, err := workload.ModelLayers(model)
	if err != nil {
		return nil, err
	}
	points := []pipelinePoint{
		{"mesh", "analytic"}, {"mesh", "barrier"}, {"mesh", "overlap"},
		{"torus", "analytic"}, {"torus", "barrier"}, {"torus", "overlap"},
	}
	rounds, err := opts.rounds()
	if err != nil {
		return nil, err
	}
	return Sweep(opts.ctx(), opts.Workers, points,
		func(_ context.Context, _ int, p pipelinePoint) (PipelineRow, error) {
			row := PipelineRow{Model: model, Topology: p.topology, Mode: p.mode, Layers: len(layers)}
			if p.mode == "analytic" {
				return analyticComposition(row, layers, rounds)
			}
			return pipelineRun(row, layers, p.mode == "overlap", rounds)
		})
}

// analyticComposition runs every layer independently on a fresh fabric
// and sums — no flit of layer k ever contends with layer k-1.
func analyticComposition(row PipelineRow, layers []cnn.LayerConfig, rounds int) (PipelineRow, error) {
	for _, layer := range layers {
		res, err := analyticLayer(row.Topology, layer, rounds)
		if err != nil {
			return row, fmt.Errorf("analytic %s: %w", layer.Name, err)
		}
		row.Cycles += res.Cycles
		row.OracleErrors += res.OracleErrors
	}
	return row, nil
}

// analyticLayer runs one layer's accumulation phase alone on a fabric in
// its just-built state. The phase is the one the scheduler arm admits for
// the layer (workload.NewPipelineJob), so the two arms share its compute
// latency by construction.
func analyticLayer(topology string, layer cnn.LayerConfig, rounds int) (*traffic.AccumulationResult, error) {
	nw, err := pipelineFabric(topology)
	if err != nil {
		return nil, err
	}
	defer nw.Release()
	_, drivers, err := workload.NewPipelineJob(nw, layer.Name, workload.PipelineConfig{
		Layers: []cnn.LayerConfig{layer},
		Scheme: traffic.CollectGather,
		Rounds: rounds,
	})
	if err != nil {
		return nil, err
	}
	ctl := drivers[0]
	cycles, err := workload.Run(nw, ctl, 10_000_000)
	if err != nil {
		return nil, err
	}
	return ctl.Result(cycles), nil
}

// pipelineRun composes the whole model on one fabric through the
// scheduler.
func pipelineRun(row PipelineRow, layers []cnn.LayerConfig, overlap bool, rounds int) (PipelineRow, error) {
	nw, err := pipelineFabric(row.Topology)
	if err != nil {
		return row, err
	}
	defer nw.Release()
	job, drivers, err := workload.NewPipelineJob(nw, row.Model, workload.PipelineConfig{
		Layers:  layers,
		Scheme:  traffic.CollectGather,
		Rounds:  rounds,
		Overlap: overlap,
	})
	if err != nil {
		return row, err
	}
	s, err := workload.New(nw, []workload.Job{job})
	if err != nil {
		return row, err
	}
	res, err := s.Run(10_000_000)
	if err != nil {
		return row, err
	}
	row.Cycles = res.Jobs[0].Time()
	for _, d := range drivers {
		row.OracleErrors += d.Snapshot().OracleErrors
	}
	return row, nil
}

// RenderPipeline formats the pipeline comparison.
func RenderPipeline(rows []PipelineRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Workload: complete %s (%d layers) on one 8x8 fabric, cycle-accurate vs analytic composition\n",
			rows[0].Model, rows[0].Layers)
	}
	fmt.Fprintf(&b, "%-8s %-10s %14s %8s\n", "fabric", "mode", "cycles", "oracle")
	for _, r := range rows {
		oracle := "exact"
		if r.OracleErrors != 0 {
			oracle = fmt.Sprintf("%d ERR", r.OracleErrors)
		}
		fmt.Fprintf(&b, "%-8s %-10s %14d %8s\n", r.Topology, r.Mode, r.Cycles, oracle)
	}
	return b.String()
}

// MultiJobRow is one job of a batched shared-fabric run.
type MultiJobRow struct {
	Job   string
	Start int64
	Done  int64
	// Cycles is the job's makespan.
	Cycles int64
	// Packets counts the job's delivered packets; MeanLatency and
	// P99Latency summarize their end-to-end latencies; Throughput is
	// packets per cycle over the makespan.
	Packets     uint64
	MeanLatency float64
	P99Latency  float64
	Throughput  float64
	// Slowdown is the job's makespan over the fastest inference job's
	// (1.0 for the fastest inference; the background row's value is
	// relative to the same baseline and reflects its own window length,
	// not contention).
	Slowdown float64
}

// MultiJobReport is a batched run's outcome.
type MultiJobReport struct {
	Topology string
	Overlap  bool
	Jobs     []MultiJobRow
	// Cycles is the whole batch's run length; MaxMinSlowdown and
	// JainFairness summarize how evenly the fabric served the
	// *inference* jobs (the background job's makespan is set by its own
	// injection window, so it is excluded).
	Cycles          int64
	MaxMinSlowdown  float64
	JainFairness    float64
	OracleErrors    int
	OrphanPackets   uint64
	OrphanPayloads  uint64
	BackgroundRate  float64
	InferenceLayers int
}

// MultiJob batches opts.Jobs (default 4) concurrent two-layer inference
// jobs (AlexNet Conv1→Pool1, staggered arrivals) plus a background
// uniform-random traffic job onto one 8x8 mesh and reports per-job
// latency, throughput and fairness — the shared-fabric serving regime the
// single-workload simulator could not express.
func MultiJob(opts Options) (*MultiJobReport, error) {
	nJobs := opts.jobs()
	layers := cnn.AlexNetAllLayers()[:2] // Conv1 → Pool1
	const bgRate = 0.005
	rounds, err := opts.rounds()
	if err != nil {
		return nil, err
	}

	nw, err := pipelineFabric("mesh")
	if err != nil {
		return nil, err
	}
	defer nw.Release()
	jobs, drivers, err := workload.NewInferenceBatch(nw, nJobs, 5, workload.PipelineConfig{
		Layers:  layers,
		Scheme:  traffic.CollectGather,
		Rounds:  rounds,
		Overlap: opts.Overlap,
	})
	if err != nil {
		return nil, err
	}
	bg, err := traffic.NewGeneratorDriver(nw, traffic.GeneratorConfig{
		Pattern:       traffic.UniformRandom{Nodes: nw.Topology().NumNodes()},
		InjectionRate: bgRate,
		PacketFlits:   2,
		Warmup:        0,
		Measure:       400,
		Seed:          1,
	})
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, workload.Job{
		Name:   "background",
		Phases: []workload.Phase{{Name: "uniform", Driver: bg}},
	})

	s, err := workload.New(nw, jobs)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(10_000_000)
	if err != nil {
		return nil, err
	}

	// Fairness is computed over the inference jobs only: the background
	// job's makespan is set by its own injection window, not by
	// contention, and including it would report workload-length mismatch
	// as unfairness.
	inferenceTimes := make([]float64, nJobs)
	for j := 0; j < nJobs; j++ {
		inferenceTimes[j] = float64(res.Jobs[j].Time())
	}
	rep := &MultiJobReport{
		Topology:        "mesh",
		Overlap:         opts.Overlap,
		Cycles:          res.Cycles,
		MaxMinSlowdown:  stats.MaxMinRatio(inferenceTimes),
		JainFairness:    stats.JainIndex(inferenceTimes),
		OrphanPackets:   res.OrphanPackets,
		OrphanPayloads:  res.OrphanPayloads,
		BackgroundRate:  bgRate,
		InferenceLayers: len(layers),
	}
	var fastest int64
	for _, j := range res.Jobs[:nJobs] {
		if t := j.Time(); fastest == 0 || (t > 0 && t < fastest) {
			fastest = t
		}
	}
	for _, j := range res.Jobs {
		row := MultiJobRow{
			Job:         j.Name,
			Start:       j.StartCycle,
			Done:        j.DrainedCycle,
			Cycles:      j.Time(),
			Packets:     j.PacketsEjected,
			MeanLatency: j.Latency.Mean(),
			P99Latency:  j.Latency.Percentile(99),
			Throughput:  j.Throughput(),
		}
		if fastest > 0 {
			row.Slowdown = float64(j.Time()) / float64(fastest)
		}
		rep.Jobs = append(rep.Jobs, row)
	}
	for _, drv := range drivers {
		for _, d := range drv {
			rep.OracleErrors += d.Snapshot().OracleErrors
		}
	}
	return rep, nil
}

// RenderMultiJob formats a batched run.
func RenderMultiJob(r *MultiJobReport) string {
	var b strings.Builder
	mode := "barrier"
	if r.Overlap {
		mode = "overlap"
	}
	fmt.Fprintf(&b, "Workload: %d batched inference jobs (+background uniform @ %.3f) on one 8x8 %s, %s phases\n",
		len(r.Jobs)-1, r.BackgroundRate, r.Topology, mode)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %10s %10s %10s %9s\n",
		"job", "start", "done", "cycles", "packets", "mean-lat", "p99-lat", "pkts/cyc", "slowdown")
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "%-14s %8d %8d %8d %8d %10.2f %10.0f %10.4f %9.3f\n",
			j.Job, j.Start, j.Done, j.Cycles, j.Packets,
			j.MeanLatency, j.P99Latency, j.Throughput, j.Slowdown)
	}
	oracle := "exact"
	if r.OracleErrors != 0 {
		oracle = fmt.Sprintf("%d ERRORS", r.OracleErrors)
	}
	fmt.Fprintf(&b, "fairness (inference jobs): max/min slowdown %.3f, Jain %.3f; oracle %s; %d cycles total\n",
		r.MaxMinSlowdown, r.JainFairness, oracle, r.Cycles)
	return b.String()
}
